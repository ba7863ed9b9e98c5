package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tsspace/internal/bitset"
	"tsspace/internal/register"
	"tsspace/internal/timestamp/collect"
)

// incrementer reads register pid and writes pid+1 back `rounds` times.
func incrementer(rounds int) Body {
	return func(pid int, mem register.Mem) (any, error) {
		for r := 0; r < rounds; r++ {
			v := mem.Read(pid)
			n := 0
			if v != nil {
				n = v.(int)
			}
			mem.Write(pid, n+1)
		}
		return pid, nil
	}
}

func TestPendingShowsFirstOp(t *testing.T) {
	sys := New(2, 2, incrementer(1))
	for pid := 0; pid < 2; pid++ {
		op, alive, err := sys.Pending(pid)
		if err != nil {
			t.Fatal(err)
		}
		if !alive {
			t.Fatalf("p%d should be alive", pid)
		}
		if op.Kind != OpRead || op.Reg != pid {
			t.Errorf("p%d pending = %v, want read(r%d)", pid, op, pid)
		}
	}
}

func TestStepExecutesAndAdvances(t *testing.T) {
	sys := New(1, 1, incrementer(1))
	op, err := sys.Step(0) // the read
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != OpRead || op.Step != 0 {
		t.Errorf("first op = %+v", op)
	}
	op, _, err = sys.Pending(0)
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != OpWrite || op.Val != 1 {
		t.Errorf("pending after read = %v, want write(r0, 1)", op)
	}
	if _, err := sys.Step(0); err != nil {
		t.Fatal(err)
	}
	if got := sys.Value(0); got != 1 {
		t.Errorf("register 0 = %v, want 1", got)
	}
	if !sys.Done(0) {
		t.Error("process should be done")
	}
}

func TestSoloRunsToCompletion(t *testing.T) {
	sys := New(1, 1, incrementer(3))
	steps, err := sys.Solo(0)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 6 { // 3 rounds × (read + write)
		t.Errorf("steps = %d, want 6", steps)
	}
	if got := sys.Value(0); got != 3 {
		t.Errorf("register 0 = %v, want 3", got)
	}
	res, ok := sys.Result(0)
	if !ok || res != 0 {
		t.Errorf("Result = (%v, %v)", res, ok)
	}
}

// A solo collect getTS at n = 3 is four steps — the reads of r0, r1 and
// r2, then the write of r0 — not one: the gated memory runs MaxInt64 as
// one scheduled read per register.
func TestCollectGetTSStepsPerRegister(t *testing.T) {
	alg := collect.New(3)
	sys := New(3, alg.Registers(), func(pid int, mem register.Mem) (any, error) {
		return alg.GetTS(mem, pid, 0)
	})
	defer sys.Close()
	steps, err := sys.Solo(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p0:read(r0)", "p0:read(r1)", "p0:read(r2)", "p0:write(r0, 1)"}
	var got []string
	for _, op := range sys.Trace() {
		got = append(got, op.String())
	}
	if steps != len(want) || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("solo collect getTS took %d steps %v, want %v", steps, got, want)
	}
}

func TestStepTerminatedErrors(t *testing.T) {
	sys := New(1, 1, incrementer(1))
	if _, err := sys.Solo(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(0); !errors.Is(err, ErrTerminated) {
		t.Errorf("Step after termination: err = %v, want ErrTerminated", err)
	}
}

func TestRunSchedule(t *testing.T) {
	sys := New(2, 2, incrementer(1))
	if err := sys.Run(0, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if sys.Value(0) != 1 || sys.Value(1) != 1 {
		t.Errorf("registers = %v", sys.Values())
	}
	if sys.Steps() != 4 {
		t.Errorf("Steps = %d, want 4", sys.Steps())
	}
	tr := sys.Trace()
	if len(tr) != 4 || tr[0].Pid != 0 || tr[1].Pid != 1 || tr[2].Pid != 1 || tr[3].Pid != 0 {
		t.Errorf("trace = %v", tr)
	}
}

// The canonical lost-update interleaving: both processes read 0, then both
// write 1 — demonstrating the scheduler can produce exactly the adversarial
// execution we ask for.
func TestLostUpdateInterleaving(t *testing.T) {
	body := func(pid int, mem register.Mem) (any, error) {
		v := mem.Read(0)
		n := 0
		if v != nil {
			n = v.(int)
		}
		mem.Write(0, n+1)
		return nil, nil
	}
	sys := New(2, 1, body)
	if err := sys.Run(0, 1, 0, 1); err != nil { // r0 r1 w0 w1
		t.Fatal(err)
	}
	if got := sys.Value(0); got != 1 {
		t.Errorf("register 0 = %v, want 1 (lost update)", got)
	}

	// Sequential schedule yields 2.
	sys = New(2, 1, body)
	if err := sys.Run(0, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := sys.Value(0); got != 2 {
		t.Errorf("register 0 = %v, want 2", got)
	}
}

func TestCoversAndSignature(t *testing.T) {
	// Writer pid writes register pid immediately.
	sys := New(3, 3, func(pid int, mem register.Mem) (any, error) {
		mem.Write(pid%2, pid) // p0,p2 -> r0; p1 -> r1
		return nil, nil
	})
	sig, err := sys.Signature()
	if err != nil {
		t.Fatal(err)
	}
	if sig[0] != 2 || sig[1] != 1 || sig[2] != 0 {
		t.Errorf("signature = %v, want [2 1 0]", sig)
	}
	reg, ok, err := sys.Covers(0)
	if err != nil || !ok || reg != 0 {
		t.Errorf("Covers(0) = (%d, %v, %v)", reg, ok, err)
	}
}

func TestCoverOutside(t *testing.T) {
	// Process writes r0, then r1, then r2.
	sys := New(1, 3, func(pid int, mem register.Mem) (any, error) {
		for i := 0; i < 3; i++ {
			mem.Write(i, i)
		}
		return nil, nil
	})
	r := bitset.Of(0, 1)
	ok, err := sys.CoverOutside(0, r)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("process should cover outside {0,1}")
	}
	op, _, _ := sys.Pending(0)
	if op.Kind != OpWrite || op.Reg != 2 {
		t.Errorf("poised at %v, want write(r2)", op)
	}
	// The earlier writes inside R executed.
	if sys.Value(0) != 0 || sys.Value(1) != 1 || sys.Value(2) != nil {
		t.Errorf("values = %v", sys.Values())
	}
}

func TestCoverOutsideTerminates(t *testing.T) {
	sys := New(1, 2, func(pid int, mem register.Mem) (any, error) {
		mem.Write(0, "x")
		return nil, nil
	})
	ok, err := sys.CoverOutside(0, bitset.Of(0))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("process writes only inside R; CoverOutside must report false")
	}
}

func TestBlockWrite(t *testing.T) {
	sys := New(3, 1, func(pid int, mem register.Mem) (any, error) {
		mem.Write(0, pid)
		return nil, nil
	})
	if err := sys.BlockWrite(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	// Last writer in the permutation wins.
	if got := sys.Value(0); got != 2 {
		t.Errorf("register 0 = %v, want 2", got)
	}
}

func TestBlockWriteRejectsReaders(t *testing.T) {
	sys := New(1, 1, func(pid int, mem register.Mem) (any, error) {
		mem.Read(0)
		return nil, nil
	})
	if err := sys.BlockWrite(0); err == nil {
		t.Error("block write over a reader should fail")
	}
}

// A block write obliterates all information in the covered registers: the
// indistinguishability engine behind Lemma 2.1.
func TestBlockWriteObliterates(t *testing.T) {
	run := func(firstWriter int) []register.Value {
		sys := New(3, 1, func(pid int, mem register.Mem) (any, error) {
			if pid == 2 {
				mem.Write(0, "blocker")
			} else {
				mem.Write(0, fmt.Sprintf("trace-%d", pid))
			}
			return nil, nil
		})
		// p(firstWriter) writes its trace, then the block-writer overwrites.
		if _, err := sys.Step(firstWriter); err != nil {
			t.Fatal(err)
		}
		if err := sys.BlockWrite(2); err != nil {
			t.Fatal(err)
		}
		return sys.Values()
	}
	a, b := run(0), run(1)
	if a[0] != b[0] || a[0] != "blocker" {
		t.Errorf("configurations distinguishable after block write: %v vs %v", a, b)
	}
}

func TestProcessPanicCaptured(t *testing.T) {
	sys := New(1, 1, func(pid int, mem register.Mem) (any, error) {
		mem.Read(0)
		panic("boom")
	})
	if _, err := sys.Step(0); err != nil {
		t.Fatal(err)
	}
	// Wait for termination.
	if _, alive, err := sys.Pending(0); err != nil || alive {
		t.Fatalf("alive=%v err=%v", alive, err)
	}
	if err := sys.Err(0); err == nil {
		t.Error("panic should surface via Err")
	}
}

func TestBodyErrorSurfaces(t *testing.T) {
	sys := New(1, 1, func(pid int, mem register.Mem) (any, error) {
		return nil, errors.New("body failed")
	})
	if _, alive, err := sys.Pending(0); err != nil || alive {
		t.Fatalf("alive=%v err=%v", alive, err)
	}
	if err := sys.Err(0); err == nil || err.Error() != "body failed" {
		t.Errorf("Err = %v", err)
	}
}

func TestDrain(t *testing.T) {
	sys := New(3, 3, incrementer(2))
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 3; pid++ {
		if !sys.Done(pid) {
			t.Errorf("p%d not done after Drain", pid)
		}
		if sys.Value(pid) != 2 {
			t.Errorf("register %d = %v, want 2", pid, sys.Value(pid))
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	factory := func() *System { return New(2, 2, incrementer(2)) }
	run := func() []register.Value {
		sys := factory()
		if err := sys.Run(0, 1, 0, 1, 1, 0, 1, 0); err != nil {
			t.Fatal(err)
		}
		return sys.Values()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged: %v vs %v", a, b)
		}
	}
}

func TestExploreCountsInterleavings(t *testing.T) {
	// Two processes, two ops each (read+write): C(4,2) = 6 interleavings.
	factory := func() *System { return New(2, 2, incrementer(1)) }
	count := 0
	visits, err := Explore(factory, 0, 100, func(sys *System, schedule []int) error {
		count++
		if len(schedule) != 4 {
			return fmt.Errorf("schedule %v has length %d, want 4", schedule, len(schedule))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visits != 6 || count != 6 {
		t.Errorf("visits = %d, want 6", visits)
	}
}

func TestExploreFindsLostUpdate(t *testing.T) {
	factory := func() *System {
		return New(2, 1, func(pid int, mem register.Mem) (any, error) {
			v := mem.Read(0)
			n := 0
			if v != nil {
				n = v.(int)
			}
			mem.Write(0, n+1)
			return nil, nil
		})
	}
	lost, total := 0, 0
	if _, err := Explore(factory, 0, 100, func(sys *System, _ []int) error {
		total++
		if sys.Value(0) == 1 {
			lost++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != 6 {
		t.Errorf("total = %d, want 6", total)
	}
	// Sequential schedules (2 of 6) preserve both increments.
	if lost != 4 {
		t.Errorf("lost updates in %d/%d interleavings, want 4/6", lost, total)
	}
}

func TestExploreVisitCap(t *testing.T) {
	factory := func() *System { return New(3, 3, incrementer(2)) }
	visits, err := Explore(factory, 10, 1000, func(sys *System, _ []int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if visits != 10 {
		t.Errorf("visits = %d, want cap 10", visits)
	}
}

func TestSampleSchedules(t *testing.T) {
	factory := func() *System { return New(3, 3, incrementer(2)) }
	runs := 0
	err := Sample(factory, 20, 42, func(sys *System, schedule []int) error {
		runs++
		if len(schedule) != 12 { // 3 procs × 2 rounds × 2 ops
			return fmt.Errorf("schedule length %d", len(schedule))
		}
		for pid := 0; pid < 3; pid++ {
			if sys.Value(pid) != 2 {
				return fmt.Errorf("r%d = %v", pid, sys.Value(pid))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 20 {
		t.Errorf("runs = %d, want 20", runs)
	}
}

func TestSampleDeterministicSeed(t *testing.T) {
	factory := func() *System { return New(2, 2, incrementer(1)) }
	collect := func(seed int64) [][]int {
		var out [][]int
		if err := Sample(factory, 5, seed, func(_ *System, schedule []int) error {
			out = append(out, append([]int(nil), schedule...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(7), collect(7)
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			t.Fatalf("same seed diverged: %v vs %v", a[i], b[i])
		}
	}
}

func TestSetValue(t *testing.T) {
	sys := New(1, 2, func(pid int, mem register.Mem) (any, error) {
		return mem.Read(1), nil
	})
	sys.SetValue(1, "preset")
	if _, err := sys.Solo(0); err != nil {
		t.Fatal(err)
	}
	res, _ := sys.Result(0)
	if res != "preset" {
		t.Errorf("result = %v, want preset", res)
	}
	if sys.Steps() != 1 {
		t.Error("SetValue must not count as a step")
	}
}

func TestCloseReleasesBlockedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		sys := New(4, 4, incrementer(3))
		// Abandon mid-execution.
		if err := sys.Run(0, 1); err != nil {
			t.Fatal(err)
		}
		sys.Close()
	}
	// Give aborted goroutines a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+8 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+8 {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

func TestCloseIdempotent(t *testing.T) {
	sys := New(1, 1, incrementer(1))
	sys.Close()
	sys.Close() // must not panic
}

func TestWatchdogFiresOnStuckBody(t *testing.T) {
	old := Watchdog
	Watchdog = 50 * time.Millisecond
	defer func() { Watchdog = old }()

	block := make(chan struct{})
	defer close(block)
	sys := New(1, 1, func(pid int, mem register.Mem) (any, error) {
		<-block // stuck local computation: never posts, never terminates
		return nil, nil
	})
	if _, _, err := sys.Pending(0); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestRenderTrace(t *testing.T) {
	sys := New(2, 2, incrementer(1))
	if err := sys.Run(0, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	out := RenderTrace(sys.Trace(), 2)
	for _, want := range []string{"p0", "p1", "r0", "w0", "r1", "w1", "·"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if RenderTrace(nil, 2) != "(empty trace)\n" {
		t.Error("empty trace rendering")
	}
}
