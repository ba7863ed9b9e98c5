package engine_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"tsspace/internal/engine"
	"tsspace/internal/lowerbound"
	"tsspace/internal/register"
	"tsspace/internal/timestamp"
	"tsspace/internal/timestamp/collect"
)

// fake is a minimal valid algorithm: a collect over n registers, each
// process writing register pid mod n (a one-register collect is NOT a
// correct timestamp object — stale writers downgrade the counter and the
// checker catches it; see TestSampleRejectsOneRegisterCollect). It does
// not declare ScalarValued, so its atomic world is a boxed AtomicArray. It
// additionally observes how many GetTS calls are in flight simultaneously,
// which the churn tests use.
type fake struct {
	n        int
	oneShot  bool
	table    [][]int
	inflight atomic.Int64
	maxIn    atomic.Int64
}

func (f *fake) Name() string         { return "fake" }
func (f *fake) Registers() int       { return f.n }
func (f *fake) OneShot() bool        { return f.oneShot }
func (f *fake) WriterTable() [][]int { return f.table }

func (f *fake) GetTS(mem register.Mem, pid, seq int) (timestamp.Timestamp, error) {
	cur := f.inflight.Add(1)
	defer f.inflight.Add(-1)
	for {
		old := f.maxIn.Load()
		if cur <= old || f.maxIn.CompareAndSwap(old, cur) {
			break
		}
	}
	ts := mem.MaxInt64(f.n) + 1
	mem.WriteInt64(pid%f.n, ts)
	return timestamp.Timestamp{Rnd: ts}, nil
}

func cfgFor(alg timestamp.Algorithm, world engine.World, n int, wl engine.Workload) engine.Config {
	return engine.Config{Alg: alg, World: world, N: n, Workload: wl, Seed: 7}
}

// Every workload kind runs in every world it supports, through the single
// Run entry point, and the result verifies.
func TestWorkloadsAcrossWorlds(t *testing.T) {
	const n = 4
	cases := []struct {
		wl     engine.Workload
		total  int // expected events
		worlds []engine.World
	}{
		{engine.OneShot{}, n, []engine.World{engine.Atomic, engine.Simulated}},
		{engine.LongLived{CallsPerProc: 3}, 3 * n, []engine.World{engine.Atomic, engine.Simulated}},
		{engine.Sequential{CallsPerProc: 2}, 2 * n, []engine.World{engine.Atomic, engine.Simulated}},
		{engine.Sequential{CallsPerProc: 2, RoundRobin: true}, 2 * n, []engine.World{engine.Atomic}},
		{engine.Phased{GroupSize: 2, CallsPerProc: 2}, 2 * n, []engine.World{engine.Atomic, engine.Simulated}},
		{engine.Churn{Width: 2, CallsPerProc: 2}, 2 * n, []engine.World{engine.Atomic, engine.Simulated}},
		{engine.Adversarial{CallsPerProc: 1}, n, []engine.World{engine.Simulated}},
	}
	for _, c := range cases {
		for _, world := range c.worlds {
			t.Run(fmt.Sprintf("%s/%s", c.wl.Kind(), world), func(t *testing.T) {
				alg := &fake{n: n}
				rep, err := engine.Run(cfgFor(alg, world, n, c.wl))
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Events) != c.total {
					t.Errorf("events = %d, want %d", len(rep.Events), c.total)
				}
				if err := rep.Verify(); err != nil {
					t.Errorf("happens-before violated: %v", err)
				}
				if rep.World != world || rep.Workload != c.wl.Kind() {
					t.Errorf("report labels = %v/%q", rep.World, rep.Workload)
				}
				if world == engine.Simulated {
					if rep.Steps == 0 || len(rep.Trace) != rep.Steps {
						t.Errorf("steps = %d, trace = %d", rep.Steps, len(rep.Trace))
					}
				}
			})
		}
	}
}

// The world/workload combinations that cannot exist report sentinels.
func TestUnsupportedCombinations(t *testing.T) {
	alg := &fake{n: 2}
	if _, err := engine.Run(cfgFor(alg, engine.Atomic, 2, engine.Adversarial{})); !errors.Is(err, engine.ErrNeedsSim) {
		t.Errorf("adversarial/atomic err = %v, want ErrNeedsSim", err)
	}
	rr := engine.Sequential{RoundRobin: true}
	if _, err := engine.Run(cfgFor(alg, engine.Simulated, 2, rr)); !errors.Is(err, engine.ErrNeedsAtomic) {
		t.Errorf("round-robin/sim err = %v, want ErrNeedsAtomic", err)
	}
}

func TestOneShotGuard(t *testing.T) {
	alg := &fake{n: 2, oneShot: true}
	for _, world := range []engine.World{engine.Atomic, engine.Simulated} {
		if _, err := engine.Run(cfgFor(alg, world, 2, engine.LongLived{CallsPerProc: 2})); !errors.Is(err, engine.ErrOneShot) {
			t.Errorf("%v: err = %v, want ErrOneShot", world, err)
		}
	}
	if _, err := engine.Exhaustive(cfgFor(alg, engine.Simulated, 2, engine.LongLived{CallsPerProc: 2}), engine.ExhaustiveOptions{MaxVisits: 100}); !errors.Is(err, engine.ErrOneShot) {
		t.Error("Exhaustive must apply the one-shot guard")
	}
	if _, err := engine.Fuzz(cfgFor(alg, engine.Simulated, 2, engine.LongLived{CallsPerProc: 2}), engine.FuzzOptions{Count: 1}); !errors.Is(err, engine.ErrOneShot) {
		t.Error("Fuzz must apply the one-shot guard")
	}
}

// Churn in the atomic world really bounds the number of simultaneously
// live processes.
func TestChurnWidthAtomic(t *testing.T) {
	const n, width = 16, 3
	alg := &fake{n: n}
	if _, err := engine.Run(cfgFor(alg, engine.Atomic, n, engine.Churn{Width: width, CallsPerProc: 2})); err != nil {
		t.Fatal(err)
	}
	if got := alg.maxIn.Load(); got > width {
		t.Errorf("max in-flight getTS = %d, want ≤ %d", got, width)
	}
	if alg.maxIn.Load() < 2 {
		t.Log("churn pool never overlapped; width check vacuous this run")
	}
}

// Churn in the simulated world admits a process only after an earlier one
// terminated: the first operation of process `width` must appear in the
// trace after the last operation of some earlier process.
func TestChurnJoinAfterLeaveSim(t *testing.T) {
	const n, width = 6, 2
	alg := &fake{n: n}
	rep, err := engine.Run(cfgFor(alg, engine.Simulated, n, engine.Churn{Width: width, CallsPerProc: 2}))
	if err != nil {
		t.Fatal(err)
	}
	firstOp := make(map[int]int)
	lastOp := make(map[int]int)
	for step, op := range rep.Trace {
		if _, ok := firstOp[op.Pid]; !ok {
			firstOp[op.Pid] = step
		}
		lastOp[op.Pid] = step
	}
	joined, ok := firstOp[width]
	if !ok {
		t.Fatalf("process %d never ran", width)
	}
	leftBefore := false
	for pid := 0; pid < width; pid++ {
		if lastOp[pid] < joined {
			leftBefore = true
		}
	}
	if !leftBefore {
		t.Errorf("process %d joined at step %d before any of p0..p%d left", width, joined, width-1)
	}
}

// An explicit adversarial schedule is replayed verbatim (prefix), then the
// system drains.
func TestAdversarialScheduleReplayed(t *testing.T) {
	const n = 2
	alg := &fake{n: n}
	schedule := []int{0, 0, 1, 0}
	rep, err := engine.Run(cfgFor(alg, engine.Simulated, n, engine.Adversarial{Schedule: schedule}))
	if err != nil {
		t.Fatal(err)
	}
	for i, pid := range schedule {
		if rep.Trace[i].Pid != pid {
			t.Errorf("step %d executed by p%d, schedule says p%d", i, rep.Trace[i].Pid, pid)
		}
	}
	if _, err := engine.Run(cfgFor(alg, engine.Simulated, n, engine.Adversarial{Schedule: []int{5}})); err == nil {
		t.Error("out-of-range schedule entry must fail")
	}
}

// The writer discipline runs inside the engine's middleware stack: an
// algorithm whose writes violate its own claimed table is caught (the
// simulated world converts the panic into a process error).
func TestDisciplineEnforcedInStack(t *testing.T) {
	// The fake writes register pid%n, so claiming register 0 belongs to
	// process 1 alone makes process 0's write a violation.
	alg := &fake{n: 2, table: [][]int{{1}, nil}}
	_, err := engine.Run(cfgFor(alg, engine.Simulated, 2, engine.OneShot{}))
	if err == nil || !strings.Contains(err.Error(), "not a permitted writer") {
		t.Errorf("err = %v, want writer-discipline violation", err)
	}
}

// OnCall exposes the run to the caller: the observer sees every call.
func TestObserverSeesEveryCall(t *testing.T) {
	const n = 3
	var calls int
	cfg := cfgFor(&fake{n: n}, engine.Atomic, n, engine.Sequential{})
	cfg.OnCall = func(pid, seq int, ts timestamp.Timestamp) { calls++ }
	if _, err := engine.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if calls != n {
		t.Errorf("observer saw %d calls, want %d", calls, n)
	}
}

// Unmetered runs still record events but skip the space accounting — the
// throughput benchmarks use this to keep the per-operation counter adds
// off the operation path.
func TestUnmetered(t *testing.T) {
	const n = 4
	cfg := cfgFor(&fake{n: n}, engine.Atomic, n, engine.OneShot{})
	cfg.Unmetered = true
	rep, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != n {
		t.Errorf("events = %d, want %d", len(rep.Events), n)
	}
	if rep.Space.Writes != 0 || rep.Space.Written != 0 {
		t.Errorf("unmetered run still accounted space: %+v", rep.Space)
	}
	if rep.Space.Registers != n {
		t.Errorf("Space.Registers = %d, want %d", rep.Space.Registers, n)
	}
}

// Exhaustive with POR off is the naive DFS: it enumerates the same
// interleaving count as the historical runner harness did for this
// algorithm shape (2 procs × (2 reads + 1 write): C(6,3) = 20), and Fuzz
// accepts the engine config.
func TestExploreAndSample(t *testing.T) {
	alg := &fake{n: 2}
	stats, err := engine.Exhaustive(cfgFor(alg, engine.Simulated, 2, engine.OneShot{}), engine.ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Visited != 20 {
		t.Errorf("visits = %d, want 20", stats.Visited)
	}
	if _, err := engine.Fuzz(cfgFor(&fake{n: 3}, engine.Simulated, 3, engine.LongLived{CallsPerProc: 2}), engine.FuzzOptions{Count: 10}); err != nil {
		t.Fatal(err)
	}
}

// The construction entry points validate the theorems' guarantees
// centrally.
func TestConstructionCovers(t *testing.T) {
	ll, err := engine.LongLivedCover(60, lowerbound.FirstFit{})
	if err != nil {
		t.Fatal(err)
	}
	if ll.Covered < ll.Bound {
		t.Errorf("long-lived: covered %d < bound %d", ll.Covered, ll.Bound)
	}
	os, err := engine.OneShotCover(100, lowerbound.LowestFirst{})
	if err != nil {
		t.Fatal(err)
	}
	if os.FinalJ < os.Bound {
		t.Errorf("one-shot: j=%d < bound %d", os.FinalJ, os.Bound)
	}
}

// NewSimSystem hands out the driveable triple for adversaries and scripted
// scenarios; results are []timestamp.Timestamp per process.
func TestNewSimSystemResults(t *testing.T) {
	alg := &fake{n: 2}
	sys, rec, meter := engine.NewSimSystem(cfgFor(alg, engine.Simulated, 2, engine.LongLived{CallsPerProc: 2}))
	defer sys.Close()
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 2; pid++ {
		res, ok := sys.Result(pid)
		if !ok {
			t.Fatalf("p%d has no result", pid)
		}
		if ts := res.([]timestamp.Timestamp); len(ts) != 2 {
			t.Errorf("p%d returned %d timestamps, want 2", pid, len(ts))
		}
	}
	if rec.Len() != 4 {
		t.Errorf("recorded %d events, want 4", rec.Len())
	}
	if meter.Report().Writes != 4 {
		t.Errorf("metered %d writes, want 4", meter.Report().Writes)
	}
}

func TestWorldStringAndParse(t *testing.T) {
	cases := map[engine.World]string{
		engine.Atomic:    "atomic",
		engine.Simulated: "simulated",
		engine.World(7):  "World(7)", // invalid values must not render as "simulated"
		engine.World(-1): "World(-1)",
	}
	for w, want := range cases {
		if got := w.String(); got != want {
			t.Errorf("World(%d).String() = %q, want %q", int(w), got, want)
		}
	}
	for _, w := range []engine.World{engine.Atomic, engine.Simulated} {
		got, err := engine.ParseWorld(w.String())
		if err != nil || got != w {
			t.Errorf("ParseWorld(%q) = (%v, %v), want round trip", w.String(), got, err)
		}
	}
	for _, bad := range []string{"", "Atomic", "sim", "World(7)"} {
		if _, err := engine.ParseWorld(bad); err == nil {
			t.Errorf("ParseWorld(%q) accepted", bad)
		}
	}
}

func TestSequentialTimestampsBothOrders(t *testing.T) {
	for _, byProcess := range []bool{true, false} {
		ts, err := engine.SequentialTimestamps(&fake{n: 3}, 3, 2, byProcess)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts) != 6 {
			t.Fatalf("len = %d", len(ts))
		}
		if err := timestamp.CheckStrictlyIncreasing(ts); err != nil {
			t.Errorf("byProcess=%v: %v", byProcess, err)
		}
	}
	// calls < 1 is the degenerate no-op it always was: no work, no error.
	if ts, err := engine.SequentialTimestamps(&fake{n: 3}, 3, 0, true); err != nil || len(ts) != 0 {
		t.Errorf("SequentialTimestamps(calls=0) = (%v, %v), want empty", ts, err)
	}
}

func TestConcurrentRunReportsSpace(t *testing.T) {
	rep, err := engine.Run(cfgFor(&fake{n: 3}, engine.Atomic, 3, engine.LongLived{CallsPerProc: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 6 {
		t.Errorf("events = %d, want 6", len(rep.Events))
	}
	if rep.Space.Registers != 3 || rep.Space.Written != 3 || rep.Space.Writes != 6 {
		t.Errorf("space = %+v, want 3 registers, 3 written, 6 writes", rep.Space)
	}
}

var errBoom = errors.New("boom")

type failing struct{ fake }

func (f *failing) GetTS(register.Mem, int, int) (timestamp.Timestamp, error) {
	return timestamp.Timestamp{}, errBoom
}

func TestConcurrentRunPropagatesAlgError(t *testing.T) {
	_, err := engine.Run(cfgFor(&failing{fake{n: 2}}, engine.Atomic, 2, engine.OneShot{}))
	if err == nil || !errors.Is(err, errBoom) {
		t.Errorf("err = %v, want errBoom", err)
	}
}

func TestReportVerifyCatchesBadCompare(t *testing.T) {
	alg := &fake{n: 4}
	rep, err := engine.Run(cfgFor(alg, engine.Atomic, 4, engine.LongLived{CallsPerProc: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	// Equal timestamps compare false both ways, so the fake's
	// happens-before pairs (each process's own calls, at least) now fail
	// verification.
	for i := range rep.Events {
		rep.Events[i].Val = timestamp.Timestamp{Rnd: 1}
	}
	if err := rep.Verify(); err == nil {
		t.Error("a history of equal timestamps must fail verification")
	}
}

func TestSampleRuns(t *testing.T) {
	if _, err := engine.Fuzz(cfgFor(&fake{n: 3}, engine.Simulated, 3, engine.LongLived{CallsPerProc: 2}), engine.FuzzOptions{Count: 25}); err != nil {
		t.Fatal(err)
	}
}

// A one-register collect is broken: a stale writer can downgrade the
// counter so a later call re-issues an already-completed timestamp. The
// sampled-schedule harness must find and reject it.
func TestSampleRejectsOneRegisterCollect(t *testing.T) {
	_, err := engine.Fuzz(cfgFor(&fake{n: 1}, engine.Simulated, 3, engine.LongLived{CallsPerProc: 2}), engine.FuzzOptions{Count: 50})
	if err == nil {
		t.Error("one-register collect must violate the spec under sampled schedules")
	}
}

type constant struct{ fake }

func (c *constant) GetTS(mem register.Mem, pid, seq int) (timestamp.Timestamp, error) {
	mem.Read(0)
	mem.Write(0, int64(1))
	return timestamp.Timestamp{Rnd: 1}, nil
}

// A constant-timestamp algorithm is rejected already by sequential
// interleavings.
func TestExploreRejectsConstantTimestamp(t *testing.T) {
	_, err := engine.Exhaustive(cfgFor(&constant{fake{n: 1}}, engine.Simulated, 2, engine.OneShot{}), engine.ExhaustiveOptions{})
	if err == nil {
		t.Error("constant-timestamp algorithm must violate the spec in sequential interleavings")
	}
}

// A call begins at its first register operation, also when that operation
// is one read of a collect: p0 reads r0 and r1, p1 runs a whole getTS,
// then p0 reads r2 and writes. Both return (1, 0), which is correct only
// because the calls overlap; stamping p0's start after the last read of
// its collect would order p1's call before it.
func TestFirstOpStampInsideCollect(t *testing.T) {
	alg := collect.New(3)
	schedule := []int{0, 0, 1, 1, 1, 1, 0, 0}
	rep, err := engine.Run(cfgFor(alg, engine.Simulated, 3, engine.Adversarial{Schedule: schedule}))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("schedule %v: %v", schedule, err)
	}
}
