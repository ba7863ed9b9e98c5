package tsserve_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsspace"
	"tsspace/tsserve"
)

func newTestServer(t *testing.T, opts ...tsspace.Option) (*tsserve.Client, *tsspace.Object) {
	t.Helper()
	c, obj, _ := newTestServerCfg(t, tsserve.ServerConfig{MaxBatch: 16}, opts...)
	return c, obj
}

func newTestServerCfg(t *testing.T, cfg tsserve.ServerConfig, opts ...tsspace.Option) (*tsserve.Client, *tsspace.Object, *tsserve.Server) {
	t.Helper()
	obj, err := tsspace.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	front := tsserve.NewServer(obj, cfg)
	srv := httptest.NewServer(front)
	t.Cleanup(func() { srv.Close(); front.Close(); obj.Close() })
	return tsserve.NewClient(srv.URL, srv.Client()), obj, front
}

// defaultEntry returns the "default" entry of a /metrics namespaces
// section.
func defaultEntry(t *testing.T, m tsserve.Metrics) tsserve.NamespaceMetrics {
	t.Helper()
	for _, nm := range m.Namespaces {
		if nm.Name == tsserve.DefaultNamespace {
			return nm
		}
	}
	t.Fatalf("metrics namespaces %+v have no %q entry", m.Namespaces, tsserve.DefaultNamespace)
	return tsserve.NamespaceMetrics{}
}

// attachedBatch takes one batch of count timestamps on a fresh lease and
// detaches it again.
func attachedBatch(t *testing.T, c *tsserve.Client, count int) []tsspace.Timestamp {
	t.Helper()
	ctx := context.Background()
	sess, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Detach()
	batch := make([]tsspace.Timestamp, count)
	if n, err := sess.GetTSBatch(ctx, batch); err != nil || n != count {
		t.Fatalf("batch of %d = (%d, %v)", count, n, err)
	}
	return batch
}

// A batch is issued by one session back to back, so it must be strictly
// increasing under tsspace.Less, the order every client applies locally.
func TestBatchedGetTSHappensBefore(t *testing.T) {
	c, _ := newTestServer(t, tsspace.WithProcs(4), tsspace.WithMetering())

	batch := attachedBatch(t, c, 5)
	for i := 0; i+1 < len(batch); i++ {
		if !tsspace.Less(batch[i], batch[i+1]) {
			t.Errorf("batch[%d] %v not before batch[%d] %v", i, batch[i], i+1, batch[i+1])
		}
	}
}

// Batches from different leases are ordered too when they do not
// overlap: a completed batch happens-before a later one.
func TestSequentialBatchesOrdered(t *testing.T) {
	c, _ := newTestServer(t, tsspace.WithProcs(4))
	first := attachedBatch(t, c, 3)
	second := attachedBatch(t, c, 3)
	if last, head := first[len(first)-1], second[0]; !tsspace.Less(last, head) {
		t.Errorf("batch boundary unordered: %v vs %v", last, head)
	}
}

// Concurrent clients funnel through the object's pid pool: more clients
// than pids must still all be served.
func TestConcurrentClientsOverFewPids(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestServer(t, tsspace.WithProcs(2))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := c.Attach(ctx)
			if err != nil {
				t.Errorf("client attach: %v", err)
				return
			}
			defer sess.Detach()
			if _, err := sess.GetTSBatch(ctx, make([]tsspace.Timestamp, 2)); err != nil {
				t.Errorf("client: %v", err)
			}
		}()
	}
	wg.Wait()
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if calls := defaultEntry(t, m).Calls; calls != 32 || m.Batches != 16 {
		t.Errorf("metrics after load: %d calls / %d batches, want 32 / 16", calls, m.Batches)
	}
}

// On a one-shot object every timestamp is a lease of its own: attach,
// getTS, detach. Completed leases order, and once the budget is spent
// the next attach fails with the typed exhaustion error.
func TestOneShotSemanticsOverTheWire(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestServer(t, tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(2))

	// Batches are rejected up front on one-shot objects.
	var apiErr *tsserve.APIError
	sess, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.GetTSBatch(ctx, make([]tsspace.Timestamp, 2)); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("one-shot batch err = %v, want 400", err)
	}
	t1, err := sess.GetTS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	t2 := attachedBatch(t, c, 1)[0]
	if !tsspace.Less(t1, t2) || tsspace.Less(t2, t1) {
		t.Errorf("one-shot pair unordered: %v vs %v", t1, t2)
	}

	// Budget spent: the typed exhaustion error crosses the wire.
	_, err = c.Attach(ctx)
	if !errors.Is(err, tsspace.ErrExhausted) {
		t.Errorf("exhausted err = %v, want ErrExhausted via APIError.Is", err)
	}
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict || apiErr.Code != tsserve.CodeExhausted {
		t.Errorf("exhausted wire form = %+v, want 409/%s", apiErr, tsserve.CodeExhausted)
	}
}

func TestHealthzAndMetricsShape(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestServer(t, tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(9), tsspace.WithMetering())
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Algorithm != "sqrt" || h.Procs != 9 || h.Registers != 6 || !h.OneShot {
		t.Errorf("health = %+v", h)
	}
	if h.Summary == "" {
		t.Error("health missing the catalog summary")
	}

	attachedBatch(t, c, 1)
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d := defaultEntry(t, m)
	if d.Calls != 1 || d.Attaches != 1 || d.Space == nil {
		t.Fatalf("default namespace metrics = %+v, want 1 call and 1 attach with a space section", d)
	}
	if d.Space.Registers != 6 || d.Space.Written < 1 {
		t.Errorf("space = %+v", *d.Space)
	}
	if m.Space == nil || *m.Space != *d.Space {
		t.Errorf("top-level space %v does not repeat the default namespace's %v", m.Space, *d.Space)
	}
	if m.UptimeSeconds <= 0 {
		t.Errorf("uptime not populated: %+v", m)
	}
}

func TestMetricsEndpointLatency(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestServer(t, tsspace.WithProcs(4))

	// Before any operation, the latency section has no endpoints.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Latency) != 0 {
		t.Errorf("latency reported before any op: %+v", m.Latency)
	}

	const batches = 20
	sess, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Detach()
	ts := make([]tsspace.Timestamp, 2)
	for i := 0; i < batches; i++ {
		if _, err := sess.GetTSBatch(ctx, ts); err != nil {
			t.Fatal(err)
		}
	}

	m, err = c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	getts, ok := m.Latency["getts"]
	if !ok {
		t.Fatalf("no getts latency in %+v", m.Latency)
	}
	if getts.Count != batches {
		t.Errorf("getts latency count %d, want %d (per request, not per timestamp)", getts.Count, batches)
	}
	if getts.P50Ns <= 0 || getts.P50Ns > getts.P99Ns || getts.P99Ns > getts.P999Ns || getts.P999Ns > getts.MaxNs {
		t.Errorf("getts percentiles not positive-monotone: %+v", getts)
	}
	att, ok := m.Latency["attach"]
	if !ok || att.Count != 1 {
		t.Errorf("attach latency = %+v (ok=%v), want count 1", att, ok)
	}
	if _, ok := m.Latency["healthz"]; ok {
		t.Error("non-operation endpoints must not be timed")
	}
}

// Wire v2 lifecycle: attach leases a pid, batches pipeline on it (ordered
// within and across), detach releases it and later calls report
// ErrDetached across the wire.
func TestRemoteSessionLifecycle(t *testing.T) {
	ctx := context.Background()
	c, obj := newTestServer(t, tsspace.WithProcs(2))

	sess, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pid := sess.Pid(); pid < 0 || pid >= 2 {
		t.Errorf("Pid = %d, want in [0,2)", pid)
	}
	if sess.ID() == "" {
		t.Error("empty session id")
	}

	var stream []tsspace.Timestamp
	buf := make([]tsspace.Timestamp, 4)
	for b := 0; b < 3; b++ {
		n, err := sess.GetTSBatch(ctx, buf)
		if err != nil || n != 4 {
			t.Fatalf("batch %d = (%d, %v), want (4, nil)", b, n, err)
		}
		stream = append(stream, buf[:n]...)
	}
	one, err := sess.GetTS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, one)
	for i := 0; i+1 < len(stream); i++ {
		if !tsspace.Less(stream[i], stream[i+1]) {
			t.Errorf("session stream unordered at %d: %v vs %v", i, stream[i], stream[i+1])
		}
	}
	if sess.Calls() != 13 {
		t.Errorf("Calls = %d, want 13", sess.Calls())
	}
	if !tsspace.Less(stream[0], stream[12]) {
		t.Errorf("first timestamp %v does not order before the last %v", stream[0], stream[12])
	}

	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Detach(); err != nil {
		t.Errorf("second Detach = %v, want idempotent nil", err)
	}
	if _, err := sess.GetTS(ctx); !errors.Is(err, tsspace.ErrDetached) {
		t.Errorf("GetTS after Detach = %v, want ErrDetached", err)
	}

	// The server-side lease is gone too: a raw request against the old id
	// is 404/unknown_session, and the SDK pid is leasable again.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if active := obj.Stats().ActiveSessions; m.WireSessions != 0 || active != 0 {
		t.Errorf("after detach: %d wire sessions, %d active SDK sessions", m.WireSessions, active)
	}
}

// A lease idle past the TTL is reaped: its pid recycles and the stale
// handle maps to ErrDetached.
func TestRemoteSessionIdleReaping(t *testing.T) {
	ctx := context.Background()
	c, _, _ := newTestServerCfg(t, tsserve.ServerConfig{SessionTTL: 50 * time.Millisecond},
		tsspace.WithProcs(1))

	sess, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.GetTS(ctx); err != nil {
		t.Fatal(err)
	}

	// With the only pid leased and the lease idle, the reaper must free it
	// for the next attach.
	next, err := c.Attach(ctx)
	if err != nil {
		t.Fatalf("attach after reap window: %v", err)
	}
	defer next.Detach()

	if _, err := sess.GetTS(ctx); !errors.Is(err, tsspace.ErrDetached) {
		t.Errorf("GetTS on a reaped session = %v, want ErrDetached", err)
	}
	if err := sess.Detach(); err != nil {
		t.Errorf("Detach of a reaped session = %v, want nil", err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReapedSessions == 0 {
		t.Errorf("metrics counted no reaped sessions: %+v", m)
	}
}

// Concurrent requests against one wire session serialize server-side:
// every batch stays internally ordered and every timestamp is distinct,
// exactly as if one client had issued them back to back.
func TestSameSessionRequestsSerialize(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestServer(t, tsspace.WithProcs(2))
	sess, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Detach()

	const clients, perClient = 8, 5
	batches := make([][]tsspace.Timestamp, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]tsspace.Timestamp, perClient)
			n, err := sess.GetTSBatch(ctx, buf)
			if err != nil || n != perClient {
				t.Errorf("client %d: batch = (%d, %v)", i, n, err)
				return
			}
			batches[i] = append([]tsspace.Timestamp(nil), buf...)
		}(i)
	}
	wg.Wait()

	seen := make(map[tsspace.Timestamp]bool)
	for i, b := range batches {
		for j := 0; j+1 < len(b); j++ {
			if !tsspace.Less(b[j], b[j+1]) {
				t.Errorf("client %d: batch unordered at %d", i, j)
			}
		}
		for _, ts := range b {
			if seen[ts] {
				t.Errorf("timestamp %v issued twice across concurrent same-session batches", ts)
			}
			seen[ts] = true
		}
	}
	if len(seen) != clients*perClient {
		t.Errorf("issued %d distinct timestamps, want %d", len(seen), clients*perClient)
	}
}

func TestOneShotSessionOverV2(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestServer(t, tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(2))

	sess, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Detach()

	// Multi-count batches are rejected up front on one-shot objects.
	var apiErr *tsserve.APIError
	if _, err := sess.GetTSBatch(ctx, make([]tsspace.Timestamp, 2)); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("one-shot v2 batch err = %v, want 400", err)
	}
	if _, err := sess.GetTS(ctx); err != nil {
		t.Fatal(err)
	}
	// The lease ended with its timestamp, and the attach reply said it
	// would: the second call fails locally with the in-process Session's
	// error, which no daemon reply maps to.
	if _, err := sess.GetTS(ctx); !errors.Is(err, tsspace.ErrOneShot) {
		t.Errorf("second one-shot GetTS = %v, want ErrOneShot", err)
	}
}

// The satellite requirement on NewClient's zero HTTP client: consecutive
// calls must reuse one keep-alive connection instead of dialing per
// request (DefaultTransport-style pooling tuned for pipelining workers).
func TestDefaultClientReusesConnections(t *testing.T) {
	obj, err := tsspace.New(tsspace.WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}
	front := tsserve.NewServer(obj, tsserve.ServerConfig{})
	srv := httptest.NewUnstartedServer(front)
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(func() { srv.Close(); front.Close(); obj.Close() })

	ctx := context.Background()
	c := tsserve.NewClient(srv.URL, nil) // nil = the tuned keep-alive default
	sess, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]tsspace.Timestamp, 2)
	for i := 0; i < 10; i++ {
		if _, err := sess.GetTSBatch(ctx, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Health(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d connections dialed across 22 consecutive calls, want 1 (keep-alive reuse)", got)
	}
}

func TestRequestValidation(t *testing.T) {
	c, _ := newTestServer(t, tsspace.WithProcs(2))
	srvURL := strings.TrimSuffix(clientBase(c), "/")
	sess, err := c.Attach(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Detach()
	getts := "/ns/default/session/" + sess.ID() + "/getts"

	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"oversized batch", "POST", getts, `{"count": 17}`, http.StatusBadRequest},
		{"negative count means 1", "POST", getts, `{"count": -3}`, http.StatusOK},
		{"empty body means 1", "POST", getts, ``, http.StatusOK},
		{"unknown field", "POST", getts, `{"size": 2}`, http.StatusBadRequest},
		{"malformed json", "POST", getts, `{`, http.StatusBadRequest},
		{"wrong method getts", "GET", getts, ``, http.StatusMethodNotAllowed},
		{"wrong method healthz", "POST", "/healthz", ``, http.StatusMethodNotAllowed},
		{"unknown path", "GET", "/nope", ``, http.StatusNotFound},
		{"un-prefixed attach", "POST", "/session", ``, http.StatusNotFound},
		// Every provisioned namespace meters: there is no unmetered field.
		{"provision unmetered", "PUT", "/ns/quiet", `{"unmetered": true}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srvURL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
			}
		})
	}
}

// clientBase exposes the client's base URL for raw-request tests.
func clientBase(c *tsserve.Client) string { return c.BaseURL() }
