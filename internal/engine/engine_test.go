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
)

// fakeTS is a timestamp type private to this test: the engine is generic
// over the timestamp type, and these tests exercise it with a type other
// than timestamp.Timestamp on purpose.
type fakeTS struct{ V int64 }

// fake is a minimal valid algorithm: a collect over n registers, each
// process writing register pid mod n. It additionally observes how many
// GetTS calls are in flight simultaneously, which the churn tests use.
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

func (f *fake) Compare(a, b fakeTS) bool { return a.V < b.V }

func (f *fake) GetTS(mem register.Mem, pid, seq int) (fakeTS, error) {
	cur := f.inflight.Add(1)
	defer f.inflight.Add(-1)
	for {
		old := f.maxIn.Load()
		if cur <= old || f.maxIn.CompareAndSwap(old, cur) {
			break
		}
	}
	var max int64
	for i := 0; i < f.n; i++ {
		if v := mem.Read(i); v != nil {
			if x := v.(int64); x > max {
				max = x
			}
		}
	}
	ts := max + 1
	mem.Write(pid%f.n, ts)
	return fakeTS{V: ts}, nil
}

func cfgFor(alg *fake, world engine.World, n int, wl engine.Workload) engine.Config[fakeTS] {
	return engine.Config[fakeTS]{Alg: alg, World: world, N: n, Workload: wl, Seed: 7}
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
				if err := rep.Verify(alg.Compare); err != nil {
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
	if _, err := engine.Explore(cfgFor(alg, engine.Simulated, 2, engine.LongLived{CallsPerProc: 2}), 0, 100); !errors.Is(err, engine.ErrOneShot) {
		t.Error("Explore must apply the one-shot guard")
	}
	if err := engine.Sample(cfgFor(alg, engine.Simulated, 2, engine.LongLived{CallsPerProc: 2}), 1); !errors.Is(err, engine.ErrOneShot) {
		t.Error("Sample must apply the one-shot guard")
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

// BaseMem and OnCall expose the run to the caller: the observer sees every
// call, and the provided memory holds the final state.
func TestBaseMemAndObserver(t *testing.T) {
	const n = 3
	alg := &fake{n: n}
	mem := register.NewAtomicArray(n)
	var calls int
	_, err := engine.Run(engine.Config[fakeTS]{
		Alg: alg, World: engine.Atomic, N: n,
		Workload: engine.Sequential{},
		BaseMem:  mem,
		OnCall:   func(pid, seq int, ts fakeTS) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != n {
		t.Errorf("observer saw %d calls, want %d", calls, n)
	}
	if mem.Read(0) == nil {
		t.Error("caller-provided memory not used")
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

// A BaseMem larger than the algorithm's budget is allowed (the extra
// registers are unconstrained by the discipline); a smaller one is an
// error, not a panic.
func TestBaseMemSizing(t *testing.T) {
	alg := &fake{n: 2, table: [][]int{{0}, {1}}}
	cfg := cfgFor(alg, engine.Atomic, 2, engine.Sequential{})
	cfg.BaseMem = register.NewAtomicArray(5)
	rep, err := engine.Run(cfg)
	if err != nil {
		t.Fatalf("oversized BaseMem rejected: %v", err)
	}
	if rep.Space.Registers != 5 {
		t.Errorf("Space.Registers = %d, want the override's 5", rep.Space.Registers)
	}

	cfg.BaseMem = register.NewAtomicArray(1)
	if _, err := engine.Run(cfg); err == nil {
		t.Error("undersized BaseMem must be rejected")
	}

	// The simulated world's memory belongs to the scheduler; an override
	// must fail fast, not be silently ignored.
	cfg.BaseMem = register.NewAtomicArray(5)
	cfg.World = engine.Simulated
	if _, err := engine.Run(cfg); !errors.Is(err, engine.ErrNeedsAtomic) {
		t.Errorf("BaseMem in the simulated world: err = %v, want ErrNeedsAtomic", err)
	}
}

// Explore enumerates the same interleaving count as the historical runner
// harness did for this algorithm shape (2 procs × (2 reads + 1 write):
// C(6,3) = 20), and Sample accepts the engine config.
func TestExploreAndSample(t *testing.T) {
	alg := &fake{n: 2}
	visits, err := engine.Explore(cfgFor(alg, engine.Simulated, 2, engine.OneShot{}), 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if visits != 20 {
		t.Errorf("visits = %d, want 20", visits)
	}
	if err := engine.Sample(cfgFor(&fake{n: 3}, engine.Simulated, 3, engine.LongLived{CallsPerProc: 2}), 10); err != nil {
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
// scenarios; results are []T per process.
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
		if ts := res.([]fakeTS); len(ts) != 2 {
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
