package timestamp

import (
	"errors"
	"testing"

	"tsspace/internal/engine"
	"tsspace/internal/register"
)

// This file kept its name when the legacy runner.go compat shims were
// deleted: it covers the same harness behaviors — concurrent runs,
// sequential baselines, exploration, sampling, discipline enforcement —
// against their replacement path, internal/engine, using a minimal fake
// algorithm so the harness itself (not an implementation) is under test.

// fake is a minimal valid algorithm: a collect over n single-writer
// registers (a one-register collect is NOT a correct timestamp object —
// stale writers downgrade the counter and the checker catches it; see
// TestSampleRejectsOneRegisterCollect).
type fake struct {
	n       int // registers/processes; 0 means 1
	oneShot bool
	table   [][]int
}

func (f *fake) Name() string { return "fake" }
func (f *fake) Registers() int {
	if f.n == 0 {
		return 1
	}
	return f.n
}
func (f *fake) OneShot() bool        { return f.oneShot }
func (f *fake) WriterTable() [][]int { return f.table }
func (f *fake) Compare(a, b Timestamp) bool {
	return Less(a, b)
}

func (f *fake) GetTS(mem register.Mem, pid, seq int) (Timestamp, error) {
	if f.oneShot && seq > 0 {
		return Timestamp{}, ErrOneShot
	}
	var max int64
	for i := 0; i < f.Registers(); i++ {
		if v := mem.Read(i); v != nil {
			if x := v.(int64); x > max {
				max = x
			}
		}
	}
	ts := max + 1
	mem.Write(pid%f.Registers(), ts)
	return Timestamp{Rnd: ts}, nil
}

// run is one atomic-world engine run of the fake.
func run(alg Algorithm, n, calls int) (*engine.Report[Timestamp], error) {
	return engine.Run(engine.Config[Timestamp]{
		Alg:      alg,
		World:    engine.Atomic,
		N:        n,
		Workload: engine.LongLived{CallsPerProc: calls},
	})
}

func simCfg(alg Algorithm, n, calls int, seed int64) engine.Config[Timestamp] {
	return engine.Config[Timestamp]{
		Alg:      alg,
		World:    engine.Simulated,
		N:        n,
		Workload: engine.LongLived{CallsPerProc: calls},
		Seed:     seed,
	}
}

func TestLessLexicographic(t *testing.T) {
	cases := []struct {
		a, b Timestamp
		want bool
	}{
		{Timestamp{1, 5}, Timestamp{2, 0}, true},
		{Timestamp{2, 0}, Timestamp{1, 5}, false},
		{Timestamp{2, 1}, Timestamp{2, 2}, true},
		{Timestamp{2, 2}, Timestamp{2, 2}, false},
	}
	for _, c := range cases {
		if got := Less(c.a, c.b); got != c.want {
			t.Errorf("Less(%v, %v) = %v", c.a, c.b, got)
		}
	}
	if (Timestamp{3, 4}).String() != "(3, 4)" {
		t.Errorf("String = %q", Timestamp{3, 4}.String())
	}
}

func TestSequentialTimestampsBothOrders(t *testing.T) {
	for _, byProcess := range []bool{true, false} {
		ts, err := engine.SequentialTimestamps[Timestamp](&fake{n: 3}, 3, 2, byProcess)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts) != 6 {
			t.Fatalf("len = %d", len(ts))
		}
		if err := CheckStrictlyIncreasing(ts, Less); err != nil {
			t.Errorf("byProcess=%v: %v", byProcess, err)
		}
	}
	// calls < 1 is the degenerate no-op it always was: no work, no error.
	if ts, err := engine.SequentialTimestamps[Timestamp](&fake{n: 3}, 3, 0, true); err != nil || len(ts) != 0 {
		t.Errorf("SequentialTimestamps(calls=0) = (%v, %v), want empty", ts, err)
	}
}

func TestCheckStrictlyIncreasingErrors(t *testing.T) {
	ts := []Timestamp{{Rnd: 1}, {Rnd: 1}}
	if err := CheckStrictlyIncreasing(ts, Less); err == nil {
		t.Error("equal adjacent timestamps must fail")
	}
	down := []Timestamp{{Rnd: 2}, {Rnd: 1}}
	if err := CheckStrictlyIncreasing(down, Less); err == nil {
		t.Error("decreasing timestamps must fail")
	}
	if err := CheckStrictlyIncreasing(nil, Less); err != nil {
		t.Error("empty sequence must pass")
	}
}

func TestConcurrentRunReportsSpace(t *testing.T) {
	rep, err := run(&fake{n: 3}, 3, 2)
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

func TestConcurrentRunRejectsOneShotRepeat(t *testing.T) {
	if _, err := run(&fake{oneShot: true}, 2, 3); !errors.Is(err, engine.ErrOneShot) {
		t.Errorf("err = %v, want engine.ErrOneShot", err)
	}
}

var errBoom = errors.New("boom")

type failing struct{ fake }

func (f *failing) GetTS(register.Mem, int, int) (Timestamp, error) {
	return Timestamp{}, errBoom
}

func TestConcurrentRunPropagatesAlgError(t *testing.T) {
	_, err := run(&failing{}, 2, 1)
	if err == nil || !errors.Is(err, errBoom) {
		t.Errorf("err = %v, want errBoom", err)
	}
}

type constFalse struct{ fake }

func (c *constFalse) Compare(a, b Timestamp) bool { return false }

func TestReportVerifyCatchesBadCompare(t *testing.T) {
	rep, err := run(&fake{n: 4}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify((&fake{}).Compare); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	// A constant-false compare must fail verification (the fake's history
	// has happens-before pairs).
	if err := rep.Verify((&constFalse{}).Compare); err == nil {
		t.Error("constant-false compare must fail verification")
	}
}

func TestDisciplineAppliedPerPid(t *testing.T) {
	alg := &fake{table: [][]int{{0}}} // register 0 writable only by pid 0
	base := NewMem(alg)
	metered := register.Wrap(base, register.Metered(register.NewMeterSize(base.Size())))

	// pid 0 may write through its stack.
	mem0 := register.Wrap(metered, register.DisciplineFor(alg.WriterTable(), 0))
	if _, err := alg.GetTS(mem0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// pid 1 must panic through the discipline layer.
	defer func() {
		if recover() == nil {
			t.Error("discipline violation not enforced")
		}
	}()
	mem1 := register.Wrap(metered, register.DisciplineFor(alg.WriterTable(), 1))
	_, _ = alg.GetTS(mem1, 1, 0)
}

func TestExploreCountsAndVerifies(t *testing.T) {
	visits, err := engine.Explore(simCfg(&fake{n: 2}, 2, 1, 0), 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Two procs × (2 reads + 1 write): C(6,3) = 20 interleavings.
	if visits != 20 {
		t.Errorf("visits = %d, want 20", visits)
	}
}

func TestSampleRuns(t *testing.T) {
	if err := engine.Sample(simCfg(&fake{n: 3}, 3, 2, 5), 25); err != nil {
		t.Fatal(err)
	}
}

// A one-register collect is broken: a stale writer can downgrade the
// counter so a later call re-issues an already-completed timestamp. The
// sampled-schedule harness must find and reject it.
func TestSampleRejectsOneRegisterCollect(t *testing.T) {
	err := engine.Sample(simCfg(&fake{n: 1}, 3, 2, 5), 50)
	if err == nil {
		t.Error("one-register collect must violate the spec under sampled schedules")
	}
}

type constant struct{ fake }

func (c *constant) GetTS(mem register.Mem, pid, seq int) (Timestamp, error) {
	mem.Read(0)
	mem.Write(0, int64(1))
	return Timestamp{Rnd: 1}, nil
}

// A constant-timestamp algorithm is rejected already by sequential
// interleavings.
func TestExploreRejectsConstantTimestamp(t *testing.T) {
	_, err := engine.Explore(simCfg(&constant{}, 2, 1, 0), 0, 1000)
	if err == nil {
		t.Error("constant-timestamp algorithm must violate the spec in sequential interleavings")
	}
}
