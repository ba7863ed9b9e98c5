package tsload_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsspace"
	"tsspace/tsload"
	"tsspace/tsserve"
)

func newInProc(t *testing.T, alg string, procs int) *tsload.InProc {
	t.Helper()
	obj, err := tsspace.New(tsspace.WithAlgorithm(alg), tsspace.WithProcs(procs), tsspace.WithMetering())
	if err != nil {
		t.Fatal(err)
	}
	target := tsload.NewInProc(obj)
	t.Cleanup(func() { target.Close() })
	return target
}

func newHTTP(t *testing.T, alg string, procs int) *tsload.HTTP {
	t.Helper()
	obj, err := tsspace.New(tsspace.WithAlgorithm(alg), tsspace.WithProcs(procs), tsspace.WithMetering())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(tsserve.NewServer(obj, tsserve.ServerConfig{}))
	t.Cleanup(func() { srv.Close(); obj.Close() })
	target, err := tsload.NewHTTP(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return target
}

// checkResult asserts the invariants every healthy run must satisfy.
func checkResult(t *testing.T, res tsload.Result) {
	t.Helper()
	if res.Ops == 0 {
		t.Fatalf("no measured ops: %+v", res)
	}
	// A measured op records only after a full, error-free batch.
	if res.Timestamps != res.Ops*uint64(res.BatchSize) {
		t.Errorf("Timestamps %d != Ops %d × BatchSize %d", res.Timestamps, res.Ops, res.BatchSize)
	}
	if res.Errors != 0 {
		t.Errorf("%d op errors", res.Errors)
	}
	if res.HBViolations != 0 {
		t.Errorf("%d happens-before violations observed under load", res.HBViolations)
	}
	if res.HBChecked == 0 {
		t.Error("the cross-worker happens-before check ordered no operation")
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput %v, want > 0", res.Throughput)
	}
	lat := res.LatencyNs
	if lat.Count != res.Ops {
		t.Errorf("latency count %d != measured ops %d", lat.Count, res.Ops)
	}
	if lat.P50 > lat.P99 || lat.P99 > lat.P999 || lat.P999 > lat.Max || lat.Min > lat.P50 {
		t.Errorf("percentiles not monotone: %v", lat)
	}
}

func TestClosedLoopSteadyInProc(t *testing.T) {
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "steady"),
		Target:   newInProc(t, "collect", 8),
		Workers:  4,
		Warmup:   20 * time.Millisecond,
		Duration: 10 * time.Second, // ops-bounded: MaxOps ends it long before
		MaxOps:   3000,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if res.Mode != "closed" || res.Target != "inproc" || res.Algorithm != "collect" {
		t.Errorf("labels wrong: %+v", res)
	}
	if res.Space == nil || res.Space.Written == 0 {
		t.Errorf("metered in-proc target reported no space: %+v", res.Space)
	}
	if res.AllocsPerOp < 0 {
		t.Errorf("AllocsPerOp %v", res.AllocsPerOp)
	}
}

func TestChurnOneShotSpendsBudget(t *testing.T) {
	const procs = 300
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "churn"),
		Target:   newInProc(t, "sqrt", procs),
		Workers:  4,
		Duration: 10 * time.Second,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetSpent {
		t.Fatalf("one-shot run did not report its budget spent: %+v", res)
	}
	if res.Ops == 0 {
		t.Fatalf("no measured ops before exhaustion: %+v", res)
	}
	// Warmup is capped at a fifth of the budget, so the measure window must
	// still see most of it.
	if res.Ops < procs/2 {
		t.Errorf("measured %d getTS ops out of a %d budget", res.Ops, procs)
	}
	if res.HBViolations != 0 || res.Errors != 0 {
		t.Errorf("violations/errors under one-shot churn: %+v", res)
	}
}

func TestSteadyAgainstOneShotForcesReattach(t *testing.T) {
	// The steady mix holds sessions forever, but a one-shot paper-process
	// has one timestamp to give: the driver must re-lease instead of
	// erroring out.
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "steady"),
		Target:   newInProc(t, "simple", 200),
		Workers:  4,
		Duration: 10 * time.Second,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetSpent {
		t.Fatalf("expected the budget to end the run: %+v", res)
	}
	if res.Errors != 0 {
		t.Errorf("steady-vs-one-shot produced %d errors, want 0", res.Errors)
	}
}

func TestOpenLoopPacing(t *testing.T) {
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "steady"),
		Target:   newInProc(t, "collect", 8),
		Workers:  4,
		Rate:     2000,
		Warmup:   50 * time.Millisecond,
		Duration: 250 * time.Millisecond,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if res.Mode != "open" {
		t.Fatalf("mode %q, want open", res.Mode)
	}
	// An in-process collect object sustains 2k/s trivially: the measured
	// arrival count must be near rate × window, and nothing dropped.
	want := 2000 * 0.25
	if float64(res.Ops) < want*0.5 || float64(res.Ops) > want*1.5 {
		t.Errorf("open loop measured %d ops, want ≈ %.0f", res.Ops, want)
	}
	if res.Dropped != 0 {
		t.Errorf("dropped %d arrivals at a trivial rate", res.Dropped)
	}
}

func TestBurstMixClosedLoop(t *testing.T) {
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "burst"),
		Target:   newInProc(t, "collect", 8),
		Workers:  2,
		Duration: 150 * time.Millisecond,
		BurstGap: 1 * time.Millisecond,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
}

func TestBatchMixInProc(t *testing.T) {
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "steady").WithBatch(16),
		Target:   newInProc(t, "collect", 8),
		Workers:  4,
		Duration: 10 * time.Second,
		MaxOps:   300,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if res.BatchSize != 16 {
		t.Errorf("BatchSize = %d, want 16", res.BatchSize)
	}
	// A measured getTS op only records after a full batch, so timestamps
	// must be exactly ops × batch.
	if res.Timestamps != res.Ops*16 {
		t.Errorf("Timestamps = %d from %d batch-of-16 ops", res.Timestamps, res.Ops)
	}
	if !strings.Contains(res.MixKind, "batch=16") {
		t.Errorf("MixKind %q does not render the batch knob", res.MixKind)
	}
}

// attachCounter is a Target that counts the leases a tsload run was
// granted: attaches that returned a session. An attach the run's cancel
// cut off returns an error and is not counted.
type attachCounter struct {
	tsload.Target
	granted atomic.Int64
}

func (c *attachCounter) Attach(ctx context.Context) (tsspace.SessionAPI, error) {
	s, err := c.Target.Attach(ctx)
	if err == nil {
		c.granted.Add(1)
	}
	return s, err
}

// Wire v2 holds one lease per worker across batches; the SDK's attach
// counter shows it. Workers attach lazily on their first op, and the
// run's cancel at MaxOps can cut off an attach still in flight. If the
// server granted that attach before the client gave up, the lease is
// orphaned: no worker holds it, so nothing detaches it, and with no TTL
// it stays in the session table. Every other lease is detached by its
// worker before Run returns. So once the server has finished its
// handlers, each SDK attach is either a lease the run was granted or an
// orphan still active, and no worker attached twice, however many
// batches crossed the wire.
func TestBatchOverWireV2HoldsLeases(t *testing.T) {
	const workers, maxOps = 3, 60
	t.Run("v2", func(t *testing.T) {
		obj, err := tsspace.New(tsspace.WithAlgorithm("collect"), tsspace.WithProcs(8))
		if err != nil {
			t.Fatal(err)
		}
		front := tsserve.NewServer(obj, tsserve.ServerConfig{})
		srv := httptest.NewServer(front)
		t.Cleanup(func() { srv.Close(); front.Close(); obj.Close() })
		wire, err := tsload.NewHTTP(context.Background(), srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		target := &attachCounter{Target: wire}
		res, err := tsload.Run(context.Background(), tsload.Config{
			Mix:      mustMix(t, "steady").WithBatch(4),
			Target:   target,
			Workers:  workers,
			Duration: 10 * time.Second,
			MaxOps:   maxOps,
			Seed:     12,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res)
		if res.Target != "http" {
			t.Errorf("target %q, want http", res.Target)
		}
		if res.Timestamps != res.Ops*4 {
			t.Errorf("Timestamps = %d from %d batch-of-4 ops", res.Timestamps, res.Ops)
		}
		if res.Ops < maxOps {
			t.Errorf("run ended after %d batches, want ≥ %d", res.Ops, maxOps)
		}
		granted := target.granted.Load()
		if granted < 1 || granted > workers {
			t.Errorf("run was granted %d leases, want 1..%d (at most one per worker)", granted, workers)
		}
		// Close waits for every handler, so an attach the server was still
		// granting when the client gave up has been booked.
		srv.Close()
		st := obj.Stats()
		if orphans := int64(st.ActiveSessions); int64(st.Attaches) != granted+orphans {
			t.Errorf("SDK attached %d sessions: %d granted leases + %d orphans, want equal", st.Attaches, granted, orphans)
		}
		if st.Attaches > workers {
			t.Errorf("SDK attached %d sessions for %d workers, want at most one per worker", st.Attaches, workers)
		}
	})
}

func TestOneShotForcesBatchOne(t *testing.T) {
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "steady").WithBatch(64),
		Target:   newInProc(t, "sqrt", 200),
		Workers:  3,
		Duration: 10 * time.Second,
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 1 {
		t.Errorf("one-shot run kept BatchSize %d, want forced 1", res.BatchSize)
	}
	if !res.BudgetSpent || res.Errors != 0 || res.HBViolations != 0 {
		t.Errorf("one-shot batched run not clean: %+v", res)
	}
	if res.Timestamps != res.Ops {
		t.Errorf("Timestamps = %d, Ops = %d, want equal at batch 1", res.Timestamps, res.Ops)
	}
}

// newReapingTarget serves a metered collect object for 8 processes from
// an in-test daemon whose reaper detaches leases idle past ttl. It returns
// a load target on the named wire ("http" or "binary") and a control-plane
// client of the daemon.
func newReapingTarget(t *testing.T, wire string, ttl time.Duration) (tsload.Target, *tsserve.Client) {
	t.Helper()
	cfg := tsserve.ServerConfig{SessionTTL: ttl}
	if wire == "binary" {
		return newBinaryDaemon(t, "collect", 8, cfg)
	}
	obj, err := tsspace.New(tsspace.WithAlgorithm("collect"), tsspace.WithProcs(8), tsspace.WithMetering())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(tsserve.NewServer(obj, cfg))
	t.Cleanup(func() { srv.Close(); obj.Close() })
	target, err := tsload.NewHTTP(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return target, tsserve.NewClient(srv.URL, srv.Client())
}

// The crash mix abandons half its leases without Detach; against a
// daemon with a short session TTL the reaper must keep the namespace
// circulating, the only errors must be the expected ErrDetached races,
// and happens-before must hold across every reclamation. The in-process
// SDK reaps nothing, so the mix is a configuration error there.
func TestCrashMixAgainstDaemonReaper(t *testing.T) {
	target, client := newReapingTarget(t, "http", 20*time.Millisecond)
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "crash"),
		Target:   target,
		Workers:  4,
		Duration: 2 * time.Second,
		Seed:     14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatalf("no measured ops under crash mix: %+v", res)
	}
	if res.Abandoned == 0 {
		t.Errorf("crash mix abandoned no leases (AttachEvery=%d, AbandonFrac=%v)",
			mustMix(t, "crash").AttachEvery, mustMix(t, "crash").AbandonFrac)
	}
	if res.UnexpectedErrors != 0 {
		t.Errorf("%d unexpected errors under crash mix (total %d, expected %d)",
			res.UnexpectedErrors, res.Errors, res.ExpectedErrors)
	}
	if res.Errors != res.ExpectedErrors+res.UnexpectedErrors {
		t.Errorf("error split does not add up: %d != %d + %d",
			res.Errors, res.ExpectedErrors, res.UnexpectedErrors)
	}
	if res.HBViolations != 0 {
		t.Errorf("%d happens-before violations across reaped leases", res.HBViolations)
	}
	m, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.ReapedSessions == 0 {
		t.Errorf("daemon reaped no leases although %d were abandoned", res.Abandoned)
	}
	if !strings.Contains(res.MixKind, "abandon=50%") {
		t.Errorf("MixKind %q does not render the abandon knob", res.MixKind)
	}

	// A closed-loop worker never idles past the TTL, so no reap lands on
	// a lease it still holds. An open-loop worker at 10 ops/s idles
	// 100 ms between arrivals: the reaper takes held leases, and each
	// wire must report the next getTS on one as tsspace.ErrDetached, the
	// error the mix expects.
	for _, wire := range []string{"http", "binary"} {
		t.Run("idle-"+wire, func(t *testing.T) {
			target, _ := newReapingTarget(t, wire, 20*time.Millisecond)
			res, err := tsload.Run(context.Background(), tsload.Config{
				Mix:      mustMix(t, "crash"),
				Target:   target,
				Workers:  1,
				Rate:     10,
				Duration: time.Second,
				Seed:     14,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d expected, %d unexpected errors over %d ops", wire, res.ExpectedErrors, res.UnexpectedErrors, res.Ops)
			if res.ExpectedErrors == 0 || res.UnexpectedErrors != 0 {
				t.Errorf("idle worker under the reaper: %d expected, %d unexpected errors; want > 0 and 0",
					res.ExpectedErrors, res.UnexpectedErrors)
			}
		})
	}

	if _, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "crash"),
		Target:   newInProc(t, "collect", 8),
		Workers:  2,
		Duration: time.Second,
		MaxOps:   50,
		Seed:     14,
	}); !errors.Is(err, tsload.ErrBadConfig) {
		t.Errorf("crash mix against the in-process SDK = %v, want ErrBadConfig", err)
	}
}

func TestHTTPTarget(t *testing.T) {
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "steady"),
		Target:   newHTTP(t, "collect", 8),
		Workers:  4,
		Duration: 10 * time.Second,
		MaxOps:   400,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if res.Target != "http" {
		t.Fatalf("target %q, want http", res.Target)
	}
	if res.Space == nil {
		t.Errorf("metered daemon reported no space over /metrics")
	}
}

func TestHTTPOneShotExhaustsOverTheWire(t *testing.T) {
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "churn"),
		Target:   newHTTP(t, "sqrt", 60),
		Workers:  3,
		Duration: 10 * time.Second,
		Seed:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetSpent {
		t.Fatalf("wire exhaustion not detected: %+v", res)
	}
	if res.HBViolations != 0 {
		t.Errorf("%d hb violations", res.HBViolations)
	}
}

// newBinary serves a metered object over an in-test daemon — HTTP for
// the control plane, a wire-v3 listener for the data plane — and wraps it
// as a binary load target.
func newBinary(t *testing.T, alg string, procs int) *tsload.Binary {
	t.Helper()
	target, _ := newBinaryDaemon(t, alg, procs, tsserve.ServerConfig{})
	return target
}

// newBinaryDaemon is newBinary over a daemon configured by cfg that also
// returns a control-plane client of the daemon, for tests that inspect
// its books.
func newBinaryDaemon(t *testing.T, alg string, procs int, cfg tsserve.ServerConfig) (*tsload.Binary, *tsserve.Client) {
	t.Helper()
	obj, err := tsspace.New(tsspace.WithAlgorithm(alg), tsspace.WithProcs(procs), tsspace.WithMetering())
	if err != nil {
		t.Fatal(err)
	}
	front := tsserve.NewServer(obj, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.ServeBinary(ln)
	srv := httptest.NewServer(front)
	t.Cleanup(func() { srv.Close(); front.Close(); obj.Close() })
	target, err := tsload.NewBinary(context.Background(), srv.URL, ln.Addr().String(), srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { target.Close() })
	return target, tsserve.NewClient(srv.URL, srv.Client())
}

func TestBinaryTarget(t *testing.T) {
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "steady"),
		Target:   newBinary(t, "collect", 8),
		Workers:  4,
		Duration: 10 * time.Second,
		MaxOps:   400,
		Seed:     15,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if res.Target != "binary" {
		t.Fatalf("target %q, want binary", res.Target)
	}
	if res.Space == nil || res.Space.Written == 0 {
		t.Errorf("metered daemon reported no space over /metrics: %+v", res.Space)
	}
}

// NewBinary's probe speaks wire v3, so an address that answers anything
// else fails at construction, not mid-run. The stub answers the way an
// HTTP listener does and hangs up.
func TestNewBinaryRejectsNonWireV3Listener(t *testing.T) {
	obj, err := tsspace.New(tsspace.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(tsserve.NewServer(obj, tsserve.ServerConfig{}))
	t.Cleanup(func() { srv.Close(); obj.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = c.Write([]byte("HTTP/1.1 400 Bad Request\r\nConnection: close\r\n\r\n"))
			c.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if target, err := tsload.NewBinary(ctx, srv.URL, ln.Addr().String(), srv.Client()); err == nil {
		target.Close()
		t.Fatal("NewBinary accepted a listener that does not speak wire v3")
	}
}

// decreasing is a Target whose sessions issue a strictly decreasing
// stream: every timestamp a worker receives orders before the previous
// one, so the driver's happens-before check must flag them.
type decreasing struct{ next atomic.Int64 }

func (d *decreasing) Kind() string      { return "decreasing" }
func (d *decreasing) Algorithm() string { return "decreasing" }
func (d *decreasing) Procs() int        { return 4 }
func (d *decreasing) OneShot() bool     { return false }
func (d *decreasing) Space(context.Context) (tsspace.Space, bool) {
	return tsspace.Space{}, false
}
func (d *decreasing) Close() error { return nil }

func (d *decreasing) Attach(context.Context) (tsspace.SessionAPI, error) {
	return &decreasingSession{d: d}, nil
}

type decreasingSession struct{ d *decreasing }

func (s *decreasingSession) GetTS(ctx context.Context) (tsspace.Timestamp, error) {
	var buf [1]tsspace.Timestamp
	_, err := s.GetTSBatch(ctx, buf[:])
	return buf[0], err
}

func (s *decreasingSession) GetTSBatch(_ context.Context, dst []tsspace.Timestamp) (int, error) {
	for i := range dst {
		dst[i] = tsspace.Timestamp{Rnd: s.d.next.Add(-1)}
	}
	return len(dst), nil
}

func (s *decreasingSession) Detach() error { return nil }

// Every issued timestamp is checked, on every mix: a target whose stream
// runs backwards must show happens-before violations on the steady mix,
// whether they cross batches (batch 1) or sit inside one (batch 16).
func TestHBViolationsCaughtOnSteady(t *testing.T) {
	for _, batch := range []int{1, 16} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			const maxOps = 50
			res, err := tsload.Run(context.Background(), tsload.Config{
				Mix:      mustMix(t, "steady").WithBatch(batch),
				Target:   &decreasing{},
				Workers:  2,
				Duration: 10 * time.Second,
				MaxOps:   maxOps,
				Seed:     16,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d op errors", res.Errors)
			}
			// Each worker's first timestamp has no predecessor; every later
			// one is a violation.
			if min := res.Timestamps - 2; res.HBViolations < min {
				t.Errorf("HBViolations = %d over %d decreasing timestamps, want ≥ %d", res.HBViolations, res.Timestamps, min)
			}
		})
	}
}

// A worker's own stream cannot see a bug that only orders calls of
// different sessions wrongly: collect-stale-scan hands out timestamps
// that a call of another worker, completed before, already exceeded. The
// cross-worker check over the workers' logs must catch it on the steady
// mix, and stay clean, having checked something, on collect.
func TestHBViolationsCaughtAcrossWorkers(t *testing.T) {
	for _, c := range []struct {
		alg  string
		want func(uint64) bool
	}{
		{"collect-stale-scan", func(v uint64) bool { return v > 0 }},
		{"collect", func(v uint64) bool { return v == 0 }},
	} {
		t.Run(c.alg, func(t *testing.T) {
			res, err := tsload.Run(context.Background(), tsload.Config{
				Mix:      mustMix(t, "steady"),
				Target:   newInProc(t, c.alg, 8),
				Workers:  4,
				Duration: 500 * time.Millisecond,
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.HBChecked == 0 || res.HBChecked > 4*4096 {
				t.Errorf("HBChecked = %d, want 1..%d", res.HBChecked, 4*4096)
			}
			if !c.want(res.HBViolations) {
				t.Errorf("HBViolations = %d over %d checked ops of %d timestamps", res.HBViolations, res.HBChecked, res.Timestamps)
			}
		})
	}
}

func TestClosedLoopDeadlineWithStuckTarget(t *testing.T) {
	// A daemon that accepts /getts and never replies must not hang the
	// run: the watchdog has to enforce the Duration deadline and cancel
	// the in-flight operations even though every worker is blocked.
	quit := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ns/default/healthz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","algorithm":"collect","procs":4}`)
			return
		}
		// Hang until the client gives up — or the test ends, so srv.Close
		// (which waits for in-flight handlers) cannot deadlock on us.
		select {
		case <-r.Context().Done():
		case <-quit:
		}
	}))
	t.Cleanup(srv.Close) // LIFO: runs after quit is closed
	t.Cleanup(func() { close(quit) })
	target, err := tsload.NewHTTP(context.Background(), srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan tsload.Result, 1)
	go func() {
		res, err := tsload.Run(context.Background(), tsload.Config{
			Mix:      mustMix(t, "steady"),
			Target:   target,
			Workers:  3,
			Duration: 200 * time.Millisecond,
			Seed:     10,
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.Ops != 0 {
			t.Errorf("stuck target produced %d measured ops", res.Ops)
		}
	case <-time.After(15 * time.Second): // covers the post-run Space timeout
		t.Fatal("Run hung on a target that never replies")
	}
}

func TestDeterministicSeeding(t *testing.T) {
	// Timing-dependent counts can differ run to run; the seeded draws must
	// not. Two ops-bounded closed-loop runs of the tenants mix with one
	// worker and the same seed route every lease to the same namespace,
	// so the per-namespace op split matches exactly.
	run := func(seed int64) tsload.Result {
		res, err := tsload.Run(context.Background(), tsload.Config{
			Mix:      mustMix(t, "tenants"),
			Target:   newBinary(t, "collect", 4),
			Workers:  1,
			Duration: 10 * time.Second,
			MaxOps:   500,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if a.Ops != b.Ops || !slices.Equal(a.NamespaceOps, b.NamespaceOps) {
		t.Errorf("same seed, different namespace split: %v vs %v", a.NamespaceOps, b.NamespaceOps)
	}
	if a.Ops != 500 || len(a.NamespaceOps) != 8 {
		t.Fatalf("run measured %d ops over %d namespaces, want 500 over 8", a.Ops, len(a.NamespaceOps))
	}
	c := run(43)
	if slices.Equal(a.NamespaceOps, c.NamespaceOps) {
		t.Logf("different seeds produced the same split (possible, just unlikely): %v", c.NamespaceOps)
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:      mustMix(t, "steady"),
		Target:   newInProc(t, "collect", 4),
		Workers:  2,
		Duration: 10 * time.Second,
		MaxOps:   200,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := tsload.WriteBench(dir, tsload.BenchReport{
		Paper:       "conf_podc_HelmiHPW11",
		Scenario:    "steady",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        tsload.CurrentHost(),
		Results:     []tsload.Result{res},
	})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_steady.json" {
		t.Errorf("wrote %s, want BENCH_steady.json", path)
	}
	rep, err := tsload.ReadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != tsload.BenchSchema || len(rep.Results) != 1 {
		t.Fatalf("round trip mangled the report: %+v", rep)
	}
	got := rep.Results[0]
	if got.Ops != res.Ops || got.LatencyNs.P99 != res.LatencyNs.P99 || got.Throughput != res.Throughput {
		t.Errorf("round trip changed results:\n wrote %+v\n read  %+v", res, got)
	}
}

// Every row of the committed smoke trajectory decodes a space section
// into tsspace.Space: the keys the BENCH files carry are the type's keys.
func TestCommittedBenchCarriesSpace(t *testing.T) {
	rep, err := tsload.ReadBench(filepath.Join("..", "bench", "BENCH_smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("the committed smoke report has no rows")
	}
	for _, r := range rep.Results {
		if r.Space == nil || r.Space.Registers == 0 || r.Space.Written > r.Space.Registers {
			t.Errorf("%s/%s/%s: space %+v, want registers > 0 and written ≤ registers", r.Mix, r.Target, r.Algorithm, r.Space)
		}
	}
}

func TestMixCatalog(t *testing.T) {
	names := tsload.MixNames()
	if len(names) < 6 {
		t.Fatalf("need ≥ 6 built-in mixes, have %v", names)
	}
	for _, want := range []string{"steady", "churn", "burst", "crash", "tenants", "storm"} {
		m, ok := tsload.LookupMix(want)
		if !ok {
			t.Errorf("mix %q missing from catalog", want)
			continue
		}
		if m.Summary == "" || m.Kind() == "" {
			t.Errorf("mix %q has empty metadata: %+v", want, m)
		}
	}
	if _, ok := tsload.LookupMix("no-such-mix"); ok {
		t.Error("LookupMix invented a mix")
	}
}

func mustMix(t *testing.T, name string) tsload.Mix {
	t.Helper()
	m, ok := tsload.LookupMix(name)
	if !ok {
		t.Fatalf("mix %q not registered", name)
	}
	return m
}

// A run with a progress reporter must deliver periodic snapshots whose
// counters never go backwards, walk the warmup→measure phases, and fire
// a final snapshot consistent with the run's Result.
func TestProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var snaps []tsload.Progress
	res, err := tsload.Run(context.Background(), tsload.Config{
		Mix:           mustMix(t, "steady"),
		Target:        newInProc(t, "collect", 8),
		Workers:       4,
		Warmup:        20 * time.Millisecond,
		Duration:      150 * time.Millisecond,
		Seed:          1,
		ProgressEvery: 10 * time.Millisecond,
		OnProgress: func(p tsload.Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) < 3 {
		t.Fatalf("got %d progress snapshots, want >= 3", len(snaps))
	}
	var lastOps uint64
	sawMeasure := false
	for i, p := range snaps {
		if p.Mix != "steady" || p.Target != "inproc" {
			t.Errorf("snapshot %d labels wrong: %+v", i, p)
		}
		switch p.Phase {
		case "warmup", "measure", "done":
		default:
			t.Errorf("snapshot %d has unknown phase %q", i, p.Phase)
		}
		if p.Phase == "measure" || p.Phase == "done" {
			sawMeasure = true
		}
		if p.Ops < lastOps {
			t.Errorf("snapshot %d ops went backwards: %d after %d", i, p.Ops, lastOps)
		}
		lastOps = p.Ops
		// Mid-run snapshots read independent atomics, so at batch 1 the
		// timestamp count may be off by the ops in flight — one per worker
		// at most.
		if skew := absDiff(p.Ops, p.Timestamps); skew > 4 {
			t.Errorf("snapshot %d: Ops %d vs Timestamps %d (skew %d)", i, p.Ops, p.Timestamps, skew)
		}
	}
	if !sawMeasure {
		t.Error("no snapshot ever reached the measure phase")
	}
	final := snaps[len(snaps)-1]
	if final.Phase != "done" {
		t.Errorf("final snapshot phase %q, want done", final.Phase)
	}
	if final.Ops != final.Timestamps {
		t.Errorf("final snapshot: Ops %d != Timestamps %d at batch 1", final.Ops, final.Timestamps)
	}
	if final.Ops < res.Ops {
		t.Errorf("final snapshot ops %d below measured result ops %d", final.Ops, res.Ops)
	}
	if final.Throughput <= 0 {
		t.Errorf("final snapshot throughput %v, want > 0", final.Throughput)
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
