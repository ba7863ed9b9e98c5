// Tests for the public session-based SDK: construction options, typed
// errors, pid-lease recycling and one-shot budget accounting.
package tsspace_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"tsspace"
)

func mustNew(t *testing.T, opts ...tsspace.Option) *tsspace.Object {
	t.Helper()
	obj, err := tsspace.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { obj.Close() })
	return obj
}

func TestNewDefaultsAndOptions(t *testing.T) {
	obj := mustNew(t)
	if obj.Algorithm() != "collect" || obj.Procs() != 16 || obj.OneShot() {
		t.Errorf("defaults: alg=%q procs=%d oneShot=%v, want collect/16/long-lived",
			obj.Algorithm(), obj.Procs(), obj.OneShot())
	}
	if _, metered := obj.Usage(); metered {
		t.Error("metering must default off")
	}

	sq := mustNew(t, tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(9), tsspace.WithMetering())
	if sq.Algorithm() != "sqrt" || sq.Procs() != 9 || !sq.OneShot() {
		t.Errorf("sqrt object: alg=%q procs=%d oneShot=%v", sq.Algorithm(), sq.Procs(), sq.OneShot())
	}
	if sq.Registers() != 6 { // ⌈2√9⌉
		t.Errorf("sqrt Registers = %d, want 6", sq.Registers())
	}
	if u, metered := sq.Usage(); !metered || u.Registers != 6 {
		t.Errorf("Usage = (%+v, %v), want metered with 6 registers", u, metered)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := tsspace.New(tsspace.WithAlgorithm("nope")); !errors.Is(err, tsspace.ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: err = %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := tsspace.New(tsspace.WithAlgorithm("")); err == nil {
		t.Error("empty algorithm name accepted")
	}
	if _, err := tsspace.New(tsspace.WithProcs(0)); err == nil {
		t.Error("WithProcs(0) accepted")
	}
	// dense needs n ≥ 2: the registry's MinProcs must turn the constructor
	// panic into an error.
	if _, err := tsspace.New(tsspace.WithAlgorithm("dense"), tsspace.WithProcs(1)); err == nil {
		t.Error("dense with 1 process accepted")
	}
}

func TestCatalogMatchesRegistry(t *testing.T) {
	names := tsspace.Algorithms()
	if !slices.Contains(names, "collect") || !slices.Contains(names, "sqrt") {
		t.Fatalf("Algorithms() = %v, missing core entries", names)
	}
	if slices.Contains(names, "collect-stale-scan") {
		t.Error("Algorithms() lists a mutant")
	}
	cat := tsspace.Catalog()
	if len(cat) != len(names) {
		t.Fatalf("Catalog has %d entries, Algorithms %d", len(cat), len(names))
	}
	for _, e := range cat {
		if e.Summary == "" {
			t.Errorf("catalog entry %q has no summary", e.Name)
		}
	}
}

func TestSessionLifecycleAndTypedErrors(t *testing.T) {
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithProcs(2))

	s, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := s.GetTS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.GetTS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !tsspace.Less(t1, t2) {
		t.Errorf("sequential calls not ordered: %v vs %v", t1, t2)
	}
	if tsspace.Less(t2, t1) {
		t.Errorf("reverse order true: %v vs %v", t2, t1)
	}
	if s.Calls() != 2 {
		t.Errorf("Calls = %d, want 2", s.Calls())
	}
	if err := s.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := s.Detach(); err != nil {
		t.Errorf("second Detach = %v, want idempotent nil", err)
	}
	if _, err := s.GetTS(ctx); !errors.Is(err, tsspace.ErrDetached) {
		t.Errorf("GetTS after Detach = %v, want ErrDetached", err)
	}

	st := obj.Stats()
	if st.Calls != 2 || st.Attaches != 1 || st.ActiveSessions != 0 {
		t.Errorf("Stats = %+v, want 2 calls / 1 attach / 0 active", st)
	}
}

// Sequence numbers persist across leases: the second lease of a pid must
// continue that pid's call history, not restart it (the implementation
// contract requires seq to count all previous calls by the process).
func TestSeqPersistsAcrossLeases(t *testing.T) {
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithProcs(1))
	var last tsspace.Timestamp
	for lease := 0; lease < 3; lease++ {
		s, err := obj.Attach(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if s.Pid() != 0 {
			t.Fatalf("lease %d got pid %d from a 1-proc object", lease, s.Pid())
		}
		ts, err := s.GetTS(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if lease > 0 && !tsspace.Less(last, ts) {
			t.Errorf("lease %d: %v not after %v", lease, ts, last)
		}
		last = ts
		s.Detach()
	}
}

// The batch form of TestSeqPersistsAcrossLeases: a batch counts its
// sequence numbers in a local and publishes them at its end, and Detach
// writes back what was published — so the next lease of the pid must
// continue after the whole batch, not after its last publication point.
// dense's silent process (pid n−1) never writes, so its timestamps order
// by sequence number alone: a lost count would reissue a smaller one.
func TestSeqPersistsAcrossBatchLeases(t *testing.T) {
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithAlgorithm("dense"), tsspace.WithProcs(2))
	writer, err := obj.Attach(ctx) // hold pid 0, so every lease below is the silent pid 1
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Detach()
	buf := make([]tsspace.Timestamp, 100)
	var last tsspace.Timestamp
	for lease := 0; lease < 3; lease++ {
		s, err := obj.Attach(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if s.Pid() != 1 {
			t.Fatalf("lease %d got pid %d, want the silent pid 1", lease, s.Pid())
		}
		if n, err := s.GetTSBatch(ctx, buf); n != len(buf) || err != nil {
			t.Fatalf("lease %d: batch = (%d, %v), want (%d, nil)", lease, n, err, len(buf))
		}
		if lease > 0 && !tsspace.Less(last, buf[0]) {
			t.Errorf("lease %d: first timestamp %v not after the previous lease's last %v", lease, buf[0], last)
		}
		last = buf[len(buf)-1]
		s.Detach()
	}
}

func TestGetTSBatchFillsAndOrders(t *testing.T) {
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithProcs(4))
	s, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Detach()

	// A single call interleaved with batches keeps one sequence: batch
	// timestamps continue where GetTS left off.
	first, err := s.GetTS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]tsspace.Timestamp, 5)
	n, err := s.GetTSBatch(ctx, buf)
	if err != nil || n != 5 {
		t.Fatalf("GetTSBatch = (%d, %v), want (5, nil)", n, err)
	}
	stream := append([]tsspace.Timestamp{first}, buf...)
	for i := 0; i+1 < len(stream); i++ {
		if !tsspace.Less(stream[i], stream[i+1]) {
			t.Errorf("stream[%d] %v vs stream[%d] %v not strictly ordered", i, stream[i], i+1, stream[i+1])
		}
	}
	if s.Calls() != 6 {
		t.Errorf("Calls = %d, want 6", s.Calls())
	}
	if st := obj.Stats(); st.Calls != 6 {
		t.Errorf("object Calls = %d, want 6", st.Calls)
	}

	// An empty dst is a no-op, not an error.
	if n, err := s.GetTSBatch(ctx, nil); n != 0 || err != nil {
		t.Errorf("empty batch = (%d, %v), want (0, nil)", n, err)
	}
}

// A batch counts in a local and publishes its count once, at its end: a
// batch of 200 must leave both the session's and the object's counter
// exact.
func TestGetTSBatchCountsExactly(t *testing.T) {
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithProcs(2))
	s, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Detach()
	buf := make([]tsspace.Timestamp, 200)
	if n, err := s.GetTSBatch(ctx, buf); n != 200 || err != nil {
		t.Fatalf("GetTSBatch = (%d, %v), want (200, nil)", n, err)
	}
	if s.Calls() != 200 {
		t.Errorf("Calls = %d, want 200", s.Calls())
	}
	if st := obj.Stats(); st.Calls != 200 {
		t.Errorf("object Calls = %d, want 200", st.Calls)
	}
}

func TestGetTSBatchTypedErrors(t *testing.T) {
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithProcs(2))
	s, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s.Detach()
	if _, err := s.GetTSBatch(ctx, make([]tsspace.Timestamp, 2)); !errors.Is(err, tsspace.ErrDetached) {
		t.Errorf("batch on detached session = %v, want ErrDetached", err)
	}

	// One-shot: a batch of 3 issues the process's single timestamp and
	// reports the typed one-shot error for the rest.
	oneShot := mustNew(t, tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(4))
	so, err := oneShot.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer so.Detach()
	buf := make([]tsspace.Timestamp, 3)
	n, err := so.GetTSBatch(ctx, buf)
	if n != 1 || !errors.Is(err, tsspace.ErrOneShot) {
		t.Errorf("one-shot batch = (%d, %v), want (1, ErrOneShot)", n, err)
	}
	if so.Calls() != 1 {
		t.Errorf("Calls after a cut-short one-shot batch = %d, want 1", so.Calls())
	}
}

// The acceptance bar of the v2 redesign: a batch on a scalar long-lived
// object performs zero allocations — the SDK adds none (caller-owned dst,
// amortized guards) and the scalar register arrays add none (one atomic
// word per register, no boxing). The metered rows pin the configuration
// the daemon ships (collect, n = 64, metered): the meter adds none either.
// A single GetTS is a batch of one on the caller's stack, and must stay at
// zero too.
func TestGetTSBatchZeroAllocs(t *testing.T) {
	ctx := context.Background()
	for _, opts := range [][]tsspace.Option{
		{tsspace.WithProcs(8)},
		{tsspace.WithAlgorithm("dense"), tsspace.WithProcs(8)},
		{tsspace.WithProcs(64), tsspace.WithMetering()},
		{tsspace.WithAlgorithm("dense"), tsspace.WithProcs(8), tsspace.WithMetering()},
	} {
		obj := mustNew(t, opts...)
		s, err := obj.Attach(ctx)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]tsspace.Timestamp, 16)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.GetTSBatch(ctx, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: GetTSBatch allocated %.1f objects per batch, want 0", obj.Algorithm(), allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := s.GetTS(ctx); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: GetTS allocated %.1f objects per call, want 0", obj.Algorithm(), allocs)
		}
		s.Detach()
	}
}

func TestAttachBlocksUntilDetachOrContext(t *testing.T) {
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithProcs(1))
	s, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// With the only pid leased, Attach must respect context cancellation.
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := obj.Attach(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Attach on drained pool = %v, want DeadlineExceeded", err)
	}

	// And it must wake up when the pid is recycled.
	done := make(chan *tsspace.Session)
	go func() {
		s2, err := obj.Attach(ctx)
		if err != nil {
			t.Error(err)
		}
		done <- s2
	}()
	time.Sleep(10 * time.Millisecond)
	s.Detach()
	select {
	case s2 := <-done:
		if s2.Pid() != 0 {
			t.Errorf("recycled pid = %d, want 0", s2.Pid())
		}
		s2.Detach()
	case <-time.After(5 * time.Second):
		t.Fatal("Attach did not wake up after Detach")
	}
}

func TestOneShotBudgetAndExhaustion(t *testing.T) {
	ctx := context.Background()
	const procs = 4
	obj := mustNew(t, tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(procs))

	// A session that never calls GetTS recycles its pid without spending
	// budget.
	idle, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	idle.Detach()

	var prev tsspace.Timestamp
	for i := 0; i < procs; i++ {
		s, err := obj.Attach(ctx)
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		ts, err := s.GetTS(ctx)
		if err != nil {
			t.Fatalf("getTS %d: %v", i, err)
		}
		if i > 0 && !tsspace.Less(prev, ts) {
			t.Errorf("timestamp %d (%v) not after %v", i, ts, prev)
		}
		prev = ts
		// A second timestamp on a one-shot session is a typed error and
		// must not consume anything.
		if _, err := s.GetTS(ctx); !errors.Is(err, tsspace.ErrOneShot) {
			t.Errorf("second GetTS = %v, want ErrOneShot", err)
		}
		s.Detach()
	}
	if _, err := obj.Attach(ctx); !errors.Is(err, tsspace.ErrExhausted) {
		t.Errorf("Attach after %d one-shot calls = %v, want ErrExhausted", procs, err)
	}
}

func TestCloseWakesAndFails(t *testing.T) {
	ctx := context.Background()
	obj, err := tsspace.New(tsspace.WithProcs(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waiter := make(chan error)
	go func() {
		_, err := obj.Attach(ctx) // blocks: pool drained
		waiter <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Errorf("second Close = %v, want idempotent nil", err)
	}
	select {
	case err := <-waiter:
		if !errors.Is(err, tsspace.ErrClosed) {
			t.Errorf("blocked Attach after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Attach not woken by Close")
	}
	if _, err := s.GetTS(ctx); !errors.Is(err, tsspace.ErrClosed) {
		t.Errorf("GetTS after Close = %v, want ErrClosed", err)
	}
	if _, err := obj.Attach(ctx); !errors.Is(err, tsspace.ErrClosed) {
		t.Errorf("Attach after Close = %v, want ErrClosed", err)
	}
}

// Usage books the exact register footprint of one timestamp from each of
// four processes: Attach leases the pids in turn, 0 to 3.
func TestMeteredUsageTracksSpace(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		alg                string
		registers, written int
		reads, writes      uint64
		writtenSet         []int
	}{
		// collect: every pid writes its own register once; each call
		// collects all four.
		{"collect", 4, 4, 16, 4, []int{0, 1, 2, 3}},
		// dense: each call collects the n−1 = 3 registers; the silent
		// process 3 writes none.
		{"dense", 3, 3, 12, 3, []int{0, 1, 2}},
	} {
		obj := mustNew(t, tsspace.WithAlgorithm(tc.alg), tsspace.WithProcs(4), tsspace.WithMetering())
		for i := 0; i < 4; i++ {
			s, err := obj.Attach(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetTS(ctx); err != nil {
				t.Fatal(err)
			}
			s.Detach()
		}
		u, metered := obj.Usage()
		if !metered {
			t.Fatalf("%s: metering on but Usage reports unmetered", tc.alg)
		}
		if u.Registers != tc.registers || u.Written != tc.written || u.Writes != tc.writes || u.Reads != tc.reads {
			t.Errorf("%s: Usage = %+v, want %d registers, %d written, %d writes, %d reads",
				tc.alg, u, tc.registers, tc.written, tc.writes, tc.reads)
		}
		if !slices.Equal(u.WrittenSet, tc.writtenSet) {
			t.Errorf("%s: Usage.WrittenSet = %v, want %v", tc.alg, u.WrittenSet, tc.writtenSet)
		}
	}
}

// An object builds a pid's state on its first lease, so New costs a fixed
// number of allocations whatever n is: the register array, the writer
// table and the free channel each grow with n, but as one allocation
// apiece.
func TestNewAllocsIndependentOfProcs(t *testing.T) {
	const small, large = 64, 65536
	// The process's first collection starts the runtime's mark workers,
	// whose goroutines count as allocations: start them here, not inside
	// a measured run.
	runtime.GC()
	for _, name := range tsspace.Algorithms() {
		for _, metered := range []bool{false, true} {
			allocs := func(n, runs int) float64 {
				opts := []tsspace.Option{tsspace.WithAlgorithm(name), tsspace.WithProcs(n)}
				if metered {
					opts = append(opts, tsspace.WithMetering())
				}
				return testing.AllocsPerRun(runs, func() {
					obj, err := tsspace.New(opts...)
					if err != nil {
						t.Fatal(err)
					}
					obj.Close()
				})
			}
			a, b := allocs(small, 20), allocs(large, 5)
			if a > 20 || b > 20 || b > a+2 {
				t.Errorf("%s metered=%v: New took %.0f allocations at n=%d and %.0f at n=%d, want ≤ 20 at both and ≤ 2 more at the larger n",
					name, metered, a, small, b, large)
			}
		}
	}
}

// A first lease builds the Session, the proc and the proc's middleware
// stack: one metered handle, plus one discipline handle when the
// algorithm declares a writer table (sqrt and fas declare none).
func TestFirstLeaseAllocs(t *testing.T) {
	const n, runs = 1000, 100 // every measured Attach is a first lease
	want := map[string]float64{"collect": 4, "dense": 4, "simple": 4, "fas": 3, "sqrt": 3}
	ctx := context.Background()
	runtime.GC() // start the mark workers outside the measured runs
	for _, name := range tsspace.Algorithms() {
		obj := mustNew(t, tsspace.WithAlgorithm(name), tsspace.WithProcs(n), tsspace.WithMetering())
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := obj.Attach(ctx); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want[name] {
			t.Errorf("%s: a first lease took %.0f allocations, want %.0f", name, allocs, want[name])
		}
	}
}

// Never-leased pids go out first, in ascending order; after that, Attach
// hands out detached pids in the order they came back.
func TestLeaseOrder(t *testing.T) {
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithProcs(4))
	attach := func(want ...int) []*tsspace.Session {
		t.Helper()
		var ss []*tsspace.Session
		for _, pid := range want {
			s, err := obj.Attach(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if s.Pid() != pid {
				t.Fatalf("attach %d got pid %d, want %d", len(ss), s.Pid(), pid)
			}
			ss = append(ss, s)
		}
		return ss
	}
	first := attach(0, 1, 2)
	first[1].Detach()
	first[0].Detach()
	attach(3, 1, 0)
}

// A done ctx or a closed object fails Attach before it claims a pid, even
// on a fresh object whose pids are all free: the failed call counts no
// attach and builds nothing, and the next live Attach still gets pid 0.
func TestDoneAttachLeasesNothing(t *testing.T) {
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	runtime.GC() // start the mark workers outside the measured runs
	failNothing := func(obj *tsspace.Object, ctx context.Context, want error) {
		t.Helper()
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := obj.Attach(ctx); !errors.Is(err, want) {
				t.Fatalf("Attach = %v, want %v", err, want)
			}
		})
		if st := obj.Stats(); allocs != 0 || st.Attaches != 0 || st.ActiveSessions != 0 {
			t.Fatalf("failed Attach allocated %.1f objects, stats %+v; want nothing leased or built", allocs, st)
		}
	}

	obj := mustNew(t, tsspace.WithProcs(4), tsspace.WithMetering())
	failNothing(obj, cancelled, context.Canceled)
	s, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pid() != 0 {
		t.Errorf("first live Attach after cancelled ones got pid %d, want 0", s.Pid())
	}

	closed := mustNew(t, tsspace.WithProcs(4), tsspace.WithMetering())
	closed.Close()
	failNothing(closed, ctx, tsspace.ErrClosed)
}

// A re-leased pid reuses the one meter handle its first lease built, so
// the meter's totals span every lease, and once every pid has been
// leased an attach plus detach allocates only the Session.
func TestMeterCountsAcrossLeases(t *testing.T) {
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithProcs(2), tsspace.WithMetering())
	for i := 0; i < 50; i++ {
		s, err := obj.Attach(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.GetTS(ctx); err != nil {
			t.Fatal(err)
		}
		s.Detach()
	}
	if u, _ := obj.Usage(); u.Reads != 100 || u.Writes != 50 || u.Written != 2 {
		t.Errorf("Usage after 50 one-call leases = %+v, want 100 reads, 50 writes, 2 written", u)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s, err := obj.Attach(ctx)
		if err != nil {
			t.Fatal(err)
		}
		s.Detach()
	})
	if allocs != 1 {
		t.Errorf("attach + detach of a re-leased pid allocated %.1f objects, want 1 (the Session)", allocs)
	}
}
