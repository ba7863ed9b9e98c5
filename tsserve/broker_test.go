package tsserve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tsspace"
	"tsspace/tsserve"
)

// GET /catalog is the timestamp registry over the wire: same names in
// the same order, same summaries, same one-shot flags and proc floors.
func TestCatalogMirrorsRegistry(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestServer(t)

	got, err := c.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := tsspace.Catalog()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d algorithms, registry has %d", len(got), len(want))
	}
	for i, e := range got {
		w := want[i]
		if e.Name != w.Name || e.Summary != w.Summary || e.OneShot != w.OneShot || e.MinProcs != w.MinProcs {
			t.Errorf("catalog[%d] = %+v, registry says %+v", i, e, w)
		}
	}
}

// A namespace's timestamps order under tsspace.Less whichever wire issued
// them, beside a default namespace running another algorithm: sqrt
// timestamps can share their rnd, which collect's rnd-only Compare cannot
// separate, so no order may come from the default namespace. Frame type
// 0x04, which once asked the server to compare, is answered like any
// unknown type, and the connection stays usable.
func TestNamespaceTimestampsOrderUnderLess(t *testing.T) {
	bc, c, _, _ := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(4))
	ctx := context.Background()
	const ns, n = "sq", 16
	if _, err := c.ProvisionNamespace(ctx, ns, tsserve.ProvisionRequest{Algorithm: "sqrt", Procs: n}); err != nil {
		t.Fatal(err)
	}

	// Sequential one-shot leases, alternating wire v3 and HTTP: each
	// completes before the next is invoked.
	var issued []tsspace.Timestamp
	for i := 0; i < n; i++ {
		var s tsspace.SessionAPI
		var err error
		if i%2 == 0 {
			s, err = bc.AttachNamespace(ctx, ns)
		} else {
			s, err = c.Namespace(ns).Attach(ctx)
		}
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		ts, err := s.GetTS(ctx)
		if err != nil {
			t.Fatalf("getts %d: %v", i, err)
		}
		if err := s.Detach(); err != nil {
			t.Fatalf("detach %d: %v", i, err)
		}
		issued = append(issued, ts)
	}
	sharedRnd := 0
	for i := range issued {
		if i > 0 && issued[i-1].Rnd == issued[i].Rnd {
			sharedRnd++
		}
		for j := i + 1; j < len(issued); j++ {
			if !tsspace.Less(issued[i], issued[j]) || tsspace.Less(issued[j], issued[i]) {
				t.Errorf("issue order %d < %d, but Less does not order %v before %v", i, j, issued[i], issued[j])
			}
		}
	}
	// Pairs that only Turn orders are what an rnd-only compare misses; a
	// stream without them could not tell the two orders apart.
	if sharedRnd == 0 {
		t.Fatalf("no consecutive timestamps share their rnd: %v", issued)
	}

	conn := rawConn(t, bc.Addr())
	rawFrame(t, conn, 0x04, []byte{2, 2, 2, 4}) // the retired compare: (1,1) vs (1,2)
	typ, p := readFrame(t, conn)
	if typ != 0xFF || len(p) < 1 || p[0] != 1 || string(p[1:]) != "unknown frame type 0x04" { // frameError, bad_request
		t.Fatalf("frame type 0x04 answered 0x%02x %q, want bad_request \"unknown frame type 0x04\"", typ, p)
	}
	if id, _ := rawAttach(t, conn); len(id) != 16 {
		t.Fatalf("attach after the unknown frame returned id %q", id)
	}
}

// The default namespace is one entry of the namespace table: an HTTP
// Client.Attach, a BinaryClient.Attach and an AttachNamespace into
// "default" all lease from the daemon's one object, which the "default"
// entry of /metrics and its labeled Prometheus samples count. The bare
// wire-v3 attach frame (0x01) is gone: it is answered like any unknown
// type, on a connection that stays usable. GET /ns and the JSON
// namespaces section list the same names in the same order, "default"
// sorted among the provisioned ones.
func TestOneNamespaceModel(t *testing.T) {
	bc, c, _, obj := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(4), tsspace.WithMetering())
	ctx := context.Background()

	httpSess, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	binSess, err := bc.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	nsSess, err := bc.AttachNamespace(ctx, tsserve.DefaultNamespace)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d := defaultEntry(t, m); d.WireSessions != 3 || obj.Stats().ActiveSessions != 3 {
		t.Fatalf("three default leases: entry %+v, %d active SDK sessions; want 3 and 3", d, obj.Stats().ActiveSessions)
	}
	for i, s := range []tsspace.SessionAPI{httpSess, binSess, nsSess} {
		if _, err := s.GetTS(ctx); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if err := s.Detach(); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if m, err = c.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	d := defaultEntry(t, m)
	if st := obj.Stats(); d.Calls != 3 || d.Attaches != 3 || st.Calls != 3 || st.Attaches != 3 {
		t.Errorf("default entry %+v and object %+v, want 3 calls and 3 attaches in both", d, st)
	}
	resp, err := http.Get(c.BaseURL() + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := promValue(t, body.Bytes(), `tsserve_ns_attaches_total{namespace="default"}`); got != 3 {
		t.Errorf(`tsserve_ns_attaches_total{namespace="default"} = %d, want 3`, got)
	}

	conn := rawConn(t, bc.Addr())
	rawFrame(t, conn, 0x01, nil) // the retired bare attach
	typ, p := readFrame(t, conn)
	if typ != 0xFF || len(p) < 1 || p[0] != 1 || string(p[1:]) != "unknown frame type 0x01" { // frameError, bad_request
		t.Fatalf("frame type 0x01 answered 0x%02x %q, want bad_request \"unknown frame type 0x01\"", typ, p)
	}
	if id, _ := rawAttach(t, conn); len(id) != 16 {
		t.Fatalf("attach after the unknown frame returned id %q", id)
	}

	for _, name := range []string{"zeta", "alpha"} {
		if _, err := c.ProvisionNamespace(ctx, name, tsserve.ProvisionRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	listed, err := c.Namespaces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m, err = c.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	var section []string
	for _, nm := range m.Namespaces {
		section = append(section, nm.Name)
	}
	if want := []string{"alpha", "default", "zeta"}; !slices.Equal(listed, want) || !slices.Equal(section, want) {
		t.Errorf("GET /ns lists %v and the metrics section %v, want %v in both", listed, section, want)
	}
}

// PUT /ns/{name} is idempotent for an identical spec, a typed conflict
// for a different one, and refuses to shadow the default namespace; the
// namespace's scoped healthz names it. DELETE releases the namespace's
// live lease, on which a getTS then answers the typed unknown-namespace,
// as does a second DELETE.
func TestProvisionDeprovisionTypedErrors(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestServer(t, tsspace.WithProcs(4))

	spec := tsserve.ProvisionRequest{Algorithm: "collect", Procs: 4, MaxSessions: 3}
	pr, err := c.ProvisionNamespace(ctx, "team-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Created || pr.Algorithm != "collect" || pr.Procs != 4 || pr.MaxSessions != 3 || pr.Registers == 0 {
		t.Fatalf("provision = %+v, want a created 4-proc collect namespace", pr)
	}

	// Identical re-PUT: success, Created false, nothing re-provisioned.
	again, err := c.ProvisionNamespace(ctx, "team-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Created {
		t.Fatalf("idempotent re-PUT reports Created: %+v", again)
	}
	if h, err := c.Namespace("team-a").Health(ctx); err != nil || h.Namespace != "team-a" || h.Algorithm != "collect" || h.Procs != 4 {
		t.Fatalf("GET /ns/team-a/healthz = %+v, %v; want team-a's 4-proc collect", h, err)
	}

	// A different spec under the same name is a typed conflict.
	if _, err := c.ProvisionNamespace(ctx, "team-a", tsserve.ProvisionRequest{Procs: 8}); !errors.Is(err, tsserve.ErrNamespaceExists) {
		t.Fatalf("conflicting re-PUT = %v, want ErrNamespaceExists", err)
	}
	// So is trying to re-provision the default namespace.
	if _, err := c.ProvisionNamespace(ctx, tsserve.DefaultNamespace, tsserve.ProvisionRequest{}); !errors.Is(err, tsserve.ErrNamespaceExists) {
		t.Fatalf("provisioning %q = %v, want ErrNamespaceExists", tsserve.DefaultNamespace, err)
	}
	// Names that cannot live in a URL path or label value are rejected.
	if _, err := c.ProvisionNamespace(ctx, "Bad.Name", tsserve.ProvisionRequest{}); err == nil {
		t.Fatal("provisioning an invalid name succeeded")
	}
	// A spec field the broker does not know — here "sharded", a register
	// layout switch it does not offer — is rejected, not silently ignored.
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.BaseURL()+"/ns/x",
		strings.NewReader(`{"sharded":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body tsserve.ErrorBody
	decErr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || decErr != nil || body.Code != tsserve.CodeBadRequest {
		t.Fatalf(`PUT /ns/x {"sharded":true} = %d %+v (decode: %v), want 400 %s`,
			resp.StatusCode, body, decErr, tsserve.CodeBadRequest)
	}

	// Only team-a was provisioned: not the rejected x.
	names, err := c.Namespaces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != tsserve.DefaultNamespace || names[1] != "team-a" {
		t.Fatalf("GET /ns = %v, want [default team-a]", names)
	}

	lease, err := c.Namespace("team-a").Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := c.DeprovisionNamespace(ctx, "team-a")
	if err != nil {
		t.Fatal(err)
	}
	if dr.Name != "team-a" || dr.ReleasedSessions != 1 {
		t.Fatalf("deprovision = %+v, want team-a with its one live lease released", dr)
	}
	if _, err := lease.GetTS(ctx); !errors.Is(err, tsserve.ErrUnknownNamespace) {
		t.Fatalf("getTS on a deprovisioned namespace's lease = %v, want ErrUnknownNamespace", err)
	}
	if _, err := c.DeprovisionNamespace(ctx, "team-a"); !errors.Is(err, tsserve.ErrUnknownNamespace) {
		t.Fatalf("double deprovision = %v, want ErrUnknownNamespace", err)
	}
	if _, err := c.DeprovisionNamespace(ctx, tsserve.DefaultNamespace); err == nil {
		t.Fatal("deprovisioning the default namespace succeeded")
	}
}

// The broker provisions at most 64 namespaces besides the default one: the
// 65th PUT is a typed quota rejection, an identical re-PUT of a
// provisioned name still answers created: false at the cap, and a
// deprovision frees a slot.
func TestNamespaceCap(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestServer(t, tsspace.WithProcs(1))
	const maxNamespaces = 64
	spec := tsserve.ProvisionRequest{Algorithm: "collect", Procs: 1}
	for i := 0; i < maxNamespaces; i++ {
		if _, err := c.ProvisionNamespace(ctx, fmt.Sprintf("ns-%d", i), spec); err != nil {
			t.Fatalf("provision %d of %d: %v", i+1, maxNamespaces, err)
		}
	}
	if _, err := c.ProvisionNamespace(ctx, "one-too-many", spec); !errors.Is(err, tsserve.ErrQuota) {
		t.Fatalf("provision beyond the cap = %v, want ErrQuota", err)
	}
	again, err := c.ProvisionNamespace(ctx, "ns-0", spec)
	if err != nil || again.Created {
		t.Fatalf("identical re-PUT at the cap = %+v, %v; want created: false", again, err)
	}
	if _, err := c.DeprovisionNamespace(ctx, "ns-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProvisionNamespace(ctx, "one-too-many", spec); err != nil {
		t.Fatalf("provision after a deprovision: %v", err)
	}
}

// A namespace's session quota is one book across both transports: leases
// held over HTTP count against binary attaches and vice versa, rejections
// are typed on both wires and counted in the namespace's /metrics entry
// beside its cap, and a detach frees the slot for either.
func TestNamespaceQuotaSharedAcrossTransports(t *testing.T) {
	bc, c, _, _ := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(8))
	ctx := context.Background()

	if _, err := c.ProvisionNamespace(ctx, "quota", tsserve.ProvisionRequest{Procs: 8, MaxSessions: 1}); err != nil {
		t.Fatal(err)
	}
	nsc := c.Namespace("quota")

	hs, err := nsc.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nsc.Attach(ctx); !errors.Is(err, tsserve.ErrQuota) {
		t.Fatalf("second HTTP attach = %v, want ErrQuota", err)
	}
	if _, err := bc.AttachNamespace(ctx, "quota"); !errors.Is(err, tsserve.ErrQuota) {
		t.Fatalf("binary attach against a full quota = %v, want ErrQuota", err)
	}
	if err := hs.Detach(); err != nil {
		t.Fatal(err)
	}

	// The freed slot serves the binary transport, and a binary detach
	// frees it again for HTTP — the release path on both wires.
	bs, err := bc.AttachNamespace(ctx, "quota")
	if err != nil {
		t.Fatalf("binary attach after release: %v", err)
	}
	if _, err := bs.GetTS(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := nsc.Attach(ctx); !errors.Is(err, tsserve.ErrQuota) {
		t.Fatalf("HTTP attach while binary holds the slot = %v, want ErrQuota", err)
	}
	if err := bs.Detach(); err != nil {
		t.Fatal(err)
	}
	hs2, err := nsc.Attach(ctx)
	if err != nil {
		t.Fatalf("HTTP attach after binary detach: %v", err)
	}
	hs2.Detach()

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var q tsserve.NamespaceMetrics
	for _, nm := range m.Namespaces {
		if nm.Name == "quota" {
			q = nm
		}
	}
	if q.QuotaRejections != 3 || q.MaxSessions != 1 {
		t.Errorf("quota namespace's /metrics entry %+v: want 3 rejections under a cap of 1", q)
	}
}

// Two provisioned namespaces are two Objects: separate registers,
// separate call counters, separate space meters — and a session id
// minted in one namespace is unknown through the other's routes.
func TestCrossNamespaceIsolation(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestServer(t, tsspace.WithProcs(4), tsspace.WithMetering())

	for _, name := range []string{"iso-a", "iso-b"} {
		if _, err := c.ProvisionNamespace(ctx, name, tsserve.ProvisionRequest{Procs: 8}); err != nil {
			t.Fatal(err)
		}
	}
	sa, err := c.Namespace("iso-a").Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Detach()
	sb, err := c.Namespace("iso-b").Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Detach()

	for i := 0; i < 3; i++ {
		if _, err := sa.GetTS(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sb.GetTS(ctx); err != nil {
		t.Fatal(err)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]tsserve.NamespaceMetrics{}
	for _, nm := range m.Namespaces {
		byName[nm.Name] = nm
	}
	ma, mb := byName["iso-a"], byName["iso-b"]
	if ma.Calls != 3 || mb.Calls != 1 {
		t.Fatalf("per-namespace calls (%d, %d), want (3, 1) — counters bleed across namespaces", ma.Calls, mb.Calls)
	}
	if ma.Space == nil || mb.Space == nil {
		t.Fatalf("provisioned namespaces missing space meters: %+v / %+v", ma, mb)
	}
	if ma.Space.Writes == mb.Space.Writes && ma.Space.Reads == mb.Space.Reads {
		t.Fatalf("space meters identical across namespaces taking different traffic: %+v", ma.Space)
	}
	if ma.WireSessions != 1 || mb.WireSessions != 1 {
		t.Fatalf("per-namespace lease gauges (%d, %d), want (1, 1)", ma.WireSessions, mb.WireSessions)
	}

	// iso-a's capability id must be invisible through iso-b's routes.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL()+"/ns/iso-b/session/"+sa.ID()+"/getts", bytes.NewReader([]byte(`{"count":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-namespace getts status = %d, want 404", resp.StatusCode)
	}
}

// An attach against a name the broker does not hold is its own typed
// rejection on both transports: counted apart from unknown sessions, and
// recorded in the flight recorder with a distinct error detail.
func TestUnknownNamespaceDistinctFromUnknownSession(t *testing.T) {
	ctx := context.Background()
	bc, c, front, _ := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(2))

	if _, err := c.Namespace("nope").Attach(ctx); !errors.Is(err, tsserve.ErrUnknownNamespace) {
		t.Fatalf("HTTP attach to unprovisioned namespace = %v, want ErrUnknownNamespace", err)
	}
	if _, err := bc.AttachNamespace(ctx, "nope"); !errors.Is(err, tsserve.ErrUnknownNamespace) {
		t.Fatalf("binary attach to unprovisioned namespace = %v, want ErrUnknownNamespace", err)
	}

	// Drive the unknown-session path for contrast.
	bogus := strings.Repeat("e", 16)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL()+"/ns/default/session/"+bogus+"/getts", bytes.NewReader([]byte(`{"count":1}`)))
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
	if m.UnknownNamespaces != 2 {
		t.Fatalf("unknown-namespace rejections = %d, want 2", m.UnknownNamespaces)
	}
	if m.UnknownSessions != 1 {
		t.Fatalf("unknown-session rejections = %d, want 1", m.UnknownSessions)
	}

	var nsDetail, sessDetail int64
	var sawNS bool
	for _, e := range dumpEvents(t, front) {
		if e.Kind != "error" {
			continue
		}
		if e.Session == bogus {
			sessDetail = e.Detail
		} else {
			nsDetail = e.Detail
			sawNS = true
		}
	}
	if !sawNS {
		t.Fatal("no flight-recorder error event for the unknown namespace")
	}
	if nsDetail == sessDetail {
		t.Fatalf("unknown-namespace and unknown-session share error detail %d — indistinguishable in the recorder", nsDetail)
	}
}

// Flight-recorder events carry the namespace id: leases bound into a
// provisioned namespace must not be tagged as default-namespace events.
func TestEventsCarryNamespaceID(t *testing.T) {
	ctx := context.Background()
	c, _, front := newTestServerCfg(t, tsserve.ServerConfig{}, tsspace.WithProcs(2))

	if _, err := c.ProvisionNamespace(ctx, "tagged", tsserve.ProvisionRequest{Procs: 2}); err != nil {
		t.Fatal(err)
	}
	sess, err := c.Namespace("tagged").Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Detach()

	for _, e := range dumpEvents(t, front) {
		if e.Kind == "attach" && e.Session == sess.ID() {
			if e.NS == 0 {
				t.Fatal("attach event in a provisioned namespace carries the default namespace id")
			}
			return
		}
	}
	t.Fatalf("no attach event for session %s", sess.ID())
}

// Provision/deprovision churn under live attach traffic on both
// transports: every failure must be one of the typed, expected shapes,
// and the final deprovision must leave no leaked quota slots. Run with
// -race, this is the broker's concurrency gate.
func TestNamespaceChurnUnderLiveTraffic(t *testing.T) {
	bc, c, _, _ := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(16))
	ctx := context.Background()
	const name = "churny"

	expected := func(err error) bool {
		return err == nil ||
			errors.Is(err, tsserve.ErrUnknownNamespace) ||
			errors.Is(err, tsserve.ErrQuota) ||
			errors.Is(err, tsspace.ErrDetached) ||
			errors.Is(err, tsspace.ErrClosed)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var fail sync.Once
	var failure error
	report := func(err error) { fail.Do(func() { failure = err }) }

	// One goroutine churns the namespace's whole lifecycle.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.ProvisionNamespace(ctx, name, tsserve.ProvisionRequest{Procs: 16, MaxSessions: 4}); err != nil && !errors.Is(err, tsserve.ErrNamespaceExists) {
				report(err)
				return
			}
			if _, err := c.DeprovisionNamespace(ctx, name); err != nil && !errors.Is(err, tsserve.ErrUnknownNamespace) {
				report(err)
				return
			}
		}
	}()

	// Workers attach into the churning namespace over both transports and
	// use whatever lease they win until it is ripped out from under them.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		binary := w%2 == 0
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sess tsspace.SessionAPI
				var err error
				if binary {
					sess, err = bc.AttachNamespace(ctx, name)
				} else {
					sess, err = c.Namespace(name).Attach(ctx)
				}
				if err != nil {
					if !expected(err) {
						report(err)
						return
					}
					continue
				}
				for i := 0; i < 4; i++ {
					if _, err := sess.GetTS(ctx); err != nil {
						if !expected(err) {
							report(err)
							return
						}
						break
					}
				}
				if err := sess.Detach(); !expected(err) {
					report(err)
					return
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failure != nil {
		t.Fatalf("churn surfaced an untyped failure: %v", failure)
	}

	// Settle: whatever round the churner was in, remove the namespace and
	// check the broker's books are balanced — a re-provisioned namespace
	// must accept exactly its quota again (no leaked slots).
	if _, err := c.DeprovisionNamespace(ctx, name); err != nil && !errors.Is(err, tsserve.ErrUnknownNamespace) {
		t.Fatal(err)
	}
	if _, err := c.ProvisionNamespace(ctx, name, tsserve.ProvisionRequest{Procs: 16, MaxSessions: 2}); err != nil {
		t.Fatal(err)
	}
	s1, err := c.Namespace(name).Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Namespace(name).Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Namespace(name).Attach(ctx); !errors.Is(err, tsserve.ErrQuota) {
		t.Fatalf("attach beyond a fresh quota of 2 = %v, want ErrQuota", err)
	}
	s1.Detach()
	s2.Detach()
	if _, err := c.DeprovisionNamespace(ctx, name); err != nil {
		t.Fatal(err)
	}
}

// The steady-state frame path through a provisioned namespace is the
// same zero-allocation path the default namespace gets: the namespace
// binding costs one attach-time lookup, not per-op work.
func TestAttachNamespaceGetTSBatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	bc, c, _, _ := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(4))
	ctx := context.Background()
	if _, err := c.ProvisionNamespace(ctx, "hot", tsserve.ProvisionRequest{Procs: 4}); err != nil {
		t.Fatal(err)
	}
	sess, err := bc.AttachNamespace(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Detach()
	buf := make([]tsspace.Timestamp, 64)
	for i := 0; i < 8; i++ {
		if _, err := sess.GetTSBatch(ctx, buf); err != nil {
			t.Fatal(err)
		}
	}
	var allocs float64
	for attempt := 0; attempt < 3; attempt++ {
		allocs = testing.AllocsPerRun(200, func() {
			if _, err := sess.GetTSBatch(ctx, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs == 0 {
			return
		}
	}
	t.Fatalf("namespace-bound GetTSBatch allocates %.2f/op, want 0", allocs)
}
