package tsserve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tsspace"
	"tsspace/internal/obs"
	"tsspace/tsserve"
)

// debugEvent mirrors one NDJSON line of the flight-recorder dump.
type debugEvent struct {
	Seq     uint64 `json:"seq"`
	TimeNs  int64  `json:"t_ns"`
	Kind    string `json:"kind"`
	Session string `json:"session"`
	Pid     int    `json:"pid"`
	NS      int    `json:"ns"`
	Detail  int64  `json:"detail"`
}

func dumpEvents(t *testing.T, front *tsserve.Server) []debugEvent {
	t.Helper()
	rec := httptest.NewRecorder()
	front.EventsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/events", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("events dump status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events dump Content-Type = %q", ct)
	}
	var events []debugEvent
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		var e debugEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("events dump line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	return events
}

// The flight recorder must tell the lease's life story: an attach event
// when the wire session registers and a reap event when the TTL reaper
// detaches it, both carrying the session's wire id.
func TestDebugEventsShowAttachAndReap(t *testing.T) {
	ctx := context.Background()
	c, _, front := newTestServerCfg(t, tsserve.ServerConfig{SessionTTL: 50 * time.Millisecond},
		tsspace.WithProcs(1))

	sess, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.GetTS(ctx); err != nil {
		t.Fatal(err)
	}

	// With the only pid leased, a fresh attach succeeds exactly when the
	// reaper has freed the idle lease — which records the reap event.
	next, err := c.Attach(ctx)
	if err != nil {
		t.Fatalf("attach after reap window: %v", err)
	}
	defer next.Detach()

	events := dumpEvents(t, front)
	var sawAttach, sawReap bool
	var lastSeq uint64
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Errorf("event seq not increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Session != sess.ID() {
			continue
		}
		switch e.Kind {
		case "attach":
			sawAttach = true
		case "reap":
			sawReap = true
			if e.Detail < 1 {
				t.Errorf("reap event detail (calls served) = %d, want >= 1", e.Detail)
			}
		}
	}
	if !sawAttach || !sawReap {
		t.Fatalf("events for session %s: attach=%v reap=%v (dump: %+v)",
			sess.ID(), sawAttach, sawReap, events)
	}
}

// A request against a session id the table does not hold — getts or
// detach, over either wire — must count one unknown-session rejection
// and surface in the flight recorder as exactly one error event carrying
// that id and the unknown-session wire code.
func TestDebugEventsRecordUnknownSession(t *testing.T) {
	ctx := context.Background()
	bc, c, front, _ := newBinaryServer(t, tsserve.ServerConfig{}, tsspace.WithProcs(2))

	httpStatus := func(t *testing.T, method, path, body string) int {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL()+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	binaryCode := func(t *testing.T, frame []byte) byte {
		t.Helper()
		conn, err := net.Dial("tcp", bc.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		req := append([]byte(tsserve.BinaryMagic), 0, 0, 0, 0)
		binary.BigEndian.PutUint32(req[len(req)-4:], uint32(len(frame)))
		if _, err := conn.Write(append(req, frame...)); err != nil {
			t.Fatal(err)
		}
		typ, payload := readFrame(t, conn)
		if typ != 0xFF || len(payload) == 0 { // frameError
			t.Fatalf("response type 0x%02x payload %v, want an error frame", typ, payload)
		}
		return payload[0]
	}
	const unknownSession = 5 // the unknown-session wire code
	for _, tc := range []struct {
		name, id string
		send     func(t *testing.T, id string)
	}{
		{"http getts", strings.Repeat("f", 16), func(t *testing.T, id string) {
			if got := httpStatus(t, http.MethodPost, "/session/"+id+"/getts", `{"count":1}`); got != http.StatusNotFound {
				t.Fatalf("status %d, want 404", got)
			}
		}},
		{"http detach", strings.Repeat("e", 16), func(t *testing.T, id string) {
			if got := httpStatus(t, http.MethodDelete, "/session/"+id, ""); got != http.StatusNotFound {
				t.Fatalf("status %d, want 404", got)
			}
		}},
		{"binary getts", strings.Repeat("d", 16), func(t *testing.T, id string) {
			if got := binaryCode(t, append(append([]byte{0x02}, id...), 1)); got != unknownSession { // frameGetTS, count 1
				t.Fatalf("error code %d, want %d", got, unknownSession)
			}
		}},
		{"binary detach", strings.Repeat("c", 16), func(t *testing.T, id string) {
			if got := binaryCode(t, append([]byte{0x03}, id...)); got != unknownSession { // frameDetach
				t.Fatalf("error code %d, want %d", got, unknownSession)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := front.MetricsSnapshot().UnknownSessions
			tc.send(t, tc.id)
			if got := front.MetricsSnapshot().UnknownSessions - before; got != 1 {
				t.Errorf("unknown-session counter moved by %d, want 1", got)
			}
			var events []debugEvent
			for _, e := range dumpEvents(t, front) {
				if e.Session == tc.id {
					events = append(events, e)
				}
			}
			if len(events) != 1 || events[0].Kind != "error" || events[0].Detail != unknownSession {
				t.Fatalf("events for unknown session %s = %+v, want one error event with detail %d", tc.id, events, unknownSession)
			}
		})
	}
}

// A one-shot lease's whole life shows in the flight recorder on either
// wire: each attach, each detach, and — once the budget is spent — the
// refused attach as exactly one error event with the exhausted code. The
// lease ends with its getTS: before the client's Detach, /metrics counts
// no live lease in the namespace and the recorder already holds the
// lease's attach and detach.
func TestOneShotLifecycleEvents(t *testing.T) {
	const procs, exhausted = 2, 2 // exhausted is the wire code
	for _, wire := range []string{"http", "binary"} {
		t.Run(wire, func(t *testing.T) {
			ctx := context.Background()
			bc, c, front, _ := newBinaryServer(t, tsserve.ServerConfig{},
				tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(procs))
			attach := func() (interface {
				tsspace.SessionAPI
				ID() string
			}, error) {
				if wire == "binary" {
					return bc.Attach(ctx)
				}
				return c.Attach(ctx)
			}
			var ids []string
			for i := 0; i < procs; i++ {
				sess, err := attach()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.GetTS(ctx); err != nil {
					t.Fatal(err)
				}
				m, err := c.Metrics(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if live := m.Namespaces[0].WireSessions; live != 0 {
					t.Errorf("lease %d: %s has %d live leases after its getTS, want 0", i, m.Namespaces[0].Name, live)
				}
				var kinds []string
				for _, e := range dumpEvents(t, front) {
					if e.Session == sess.ID() {
						kinds = append(kinds, e.Kind)
					}
				}
				if got := strings.Join(kinds, ","); got != "attach,detach" {
					t.Errorf("lease %d before Detach: events %s, want attach,detach", i, got)
				}
				if err := sess.Detach(); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, sess.ID())
			}
			if _, err := attach(); !errors.Is(err, tsspace.ErrExhausted) {
				t.Fatalf("attach past the budget = %v, want ErrExhausted", err)
			}

			kinds := map[string][]string{}
			var exhaustions int
			for _, e := range dumpEvents(t, front) {
				kinds[e.Session] = append(kinds[e.Session], e.Kind)
				if e.Kind == "error" {
					if e.Detail != exhausted {
						t.Errorf("error event %+v, want detail %d (exhausted)", e, exhausted)
					}
					exhaustions++
				}
			}
			for _, id := range ids {
				if got := strings.Join(kinds[id], ","); got != "attach,detach" {
					t.Errorf("events for lease %s: %s, want attach,detach", id, got)
				}
			}
			if exhaustions != 1 {
				t.Errorf("%d error events for the spent budget, want 1", exhaustions)
			}
		})
	}
}

// promValue extracts one scalar sample value from an exposition body.
func promValue(t *testing.T, body []byte, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %s has value %q: %v", name, v, err)
			}
			return uint64(f)
		}
	}
	t.Fatalf("exposition has no sample %s", name)
	return 0
}

// The JSON /metrics body and the Prometheus exposition are two renderings
// of one registry: after the same traffic, the counters they report must
// agree exactly, and every wire-layer rejection family must be present in
// the exposition even at zero.
func TestMetricsTwoViewsOneRegistry(t *testing.T) {
	ctx := context.Background()
	c, _, _ := newTestServerCfg(t, tsserve.ServerConfig{MaxBatch: 16}, tsspace.WithMetering())

	sess, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]tsspace.Timestamp, 5)
	for i := 0; i < 3; i++ {
		if _, err := sess.GetTSBatch(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	// A getts on the now-detached lease drives the unknown-session path.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL()+"/session/"+sess.ID()+"/getts", bytes.NewReader([]byte(`{"count":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	promResp, err := http.Get(c.BaseURL() + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	if ct := promResp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("exposition Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(promResp.Body); err != nil {
		t.Fatal(err)
	}
	families, err := obs.ParseExposition(body.Bytes())
	if err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, body.String())
	}

	for _, want := range []struct {
		family string
		sample string // exposition sample name; "" means the bare family
		json   uint64
	}{
		{"tsserve_calls_total", "", m.Calls},
		{"tsserve_batches_total", "", m.Batches},
		{"tsserve_attaches_total", "", m.Attaches},
		{"tsserve_unknown_sessions_total", "", m.UnknownSessions},
		{"tsserve_unknown_namespaces_total", "", m.UnknownNamespaces},
		{"tsserve_rejected_frames_oversized_total", "", m.OversizedFrames},
		{"tsserve_rejected_conns_bad_magic_total", "", m.BadMagicConns},
		// The register-space families are namespace-labeled; the default
		// namespace's sample must agree with the JSON space block.
		{"tsspace_registers_used", `tsspace_registers_used{namespace="default"}`, uint64(m.Space.Written)},
		{"tsserve_ns_calls_total", `tsserve_ns_calls_total{namespace="default"}`, m.Calls},
	} {
		if _, ok := families[want.family]; !ok {
			t.Errorf("exposition missing family %s", want.family)
			continue
		}
		sample := want.sample
		if sample == "" {
			sample = want.family
		}
		if got := promValue(t, body.Bytes(), sample); got != want.json {
			t.Errorf("%s: prometheus %d != json %d", sample, got, want.json)
		}
	}
	// The JSON namespaces section must mirror the labeled families: one
	// entry, the default namespace, same space numbers.
	if len(m.Namespaces) != 1 || m.Namespaces[0].Name != tsserve.DefaultNamespace {
		t.Fatalf("namespaces section = %+v, want exactly the default namespace", m.Namespaces)
	}
	if nsm := m.Namespaces[0]; nsm.Space == nil || nsm.Space.Written != m.Space.Written || nsm.Calls != m.Calls {
		t.Errorf("default-namespace metrics %+v disagree with the top-level view (calls %d, written %d)",
			nsm, m.Calls, m.Space.Written)
	}
	if m.UnknownSessions == 0 {
		t.Error("unknown-session counter did not move")
	}
	if m.Batches != 3 {
		t.Errorf("batches = %d, want 3", m.Batches)
	}

	// The getts latency histogram must cover the batches in both views.
	f, ok := families["tsserve_getts_latency_ns"]
	if !ok || f.Type != "histogram" {
		t.Fatalf("exposition getts latency family missing or mistyped: %+v", f)
	}
	jl, ok := m.Latency["getts"]
	if !ok {
		t.Fatalf("JSON metrics carry no getts latency: %+v", m.Latency)
	}
	if f.Count != jl.Count {
		t.Errorf("getts latency count: prometheus %d != json %d", f.Count, jl.Count)
	}
}
