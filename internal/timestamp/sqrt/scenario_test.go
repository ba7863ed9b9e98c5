package sqrt_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tsspace/internal/engine"
	"tsspace/internal/hbcheck"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
	"tsspace/internal/timestamp/sqrt"
)

// newSim builds a one-shot (one call per process) simulated system for alg
// through the engine — the replacement for the deleted runner shims.
func newSim(alg timestamp.Algorithm, n int) (*sched.System, *hbcheck.Recorder) {
	sys, rec, _ := engine.NewSimSystem(engine.Config{
		Alg:      alg,
		World:    engine.Simulated,
		N:        n,
		Workload: engine.OneShot{},
	})
	return sys, rec
}

// driver drives one-shot getTS calls, one per process, through the
// deterministic scheduler with fine-grained control.
type driver struct {
	t   *testing.T
	sys *sched.System
	rec *hbcheck.Recorder
	alg *sqrt.Alg
}

func newDriver(t *testing.T, alg *sqrt.Alg, n int) *driver {
	t.Helper()
	sys, rec := newSim(alg, n)
	t.Cleanup(sys.Close)
	return &driver{t: t, sys: sys, rec: rec, alg: alg}
}

// solo runs pid to completion and returns its timestamp.
func (d *driver) solo(pid int) timestamp.Timestamp {
	d.t.Helper()
	if _, err := d.sys.Solo(pid); err != nil {
		d.t.Fatalf("solo p%d: %v", pid, err)
	}
	if err := d.sys.Err(pid); err != nil {
		d.t.Fatalf("p%d failed: %v", pid, err)
	}
	res, ok := d.sys.Result(pid)
	if !ok {
		d.t.Fatalf("p%d did not finish", pid)
	}
	return res.([]timestamp.Timestamp)[0]
}

// parkAtWrite runs pid until poised to write register reg.
func (d *driver) parkAtWrite(pid, reg int) {
	d.t.Helper()
	ok, err := d.sys.RunUntil(pid, func(op sched.Op) bool {
		return op.Kind == sched.OpWrite && op.Reg == reg
	})
	if err != nil {
		d.t.Fatalf("park p%d at r%d: %v", pid, reg, err)
	}
	if !ok {
		d.t.Fatalf("p%d terminated before writing r%d", pid, reg)
	}
}

// release executes the parked write and completes the process.
func (d *driver) release(pid int) timestamp.Timestamp {
	d.t.Helper()
	if _, err := d.sys.Step(pid); err != nil {
		d.t.Fatalf("release p%d: %v", pid, err)
	}
	return d.solo(pid)
}

func ts(rnd, turn int64) timestamp.Timestamp { return timestamp.Timestamp{Rnd: rnd, Turn: turn} }

// The §6.1 stale-writer scenario: a getTS poised to invalidate R[1] in
// phase 2 sleeps; phases advance to 4; on waking, its write invalidates
// R[1] *for phase 4*, burning timestamp (4,1): the next getTS returns
// (4,2) and nobody ever receives (4,1). "Damage is confined to at most one
// such wasted timestamp per getTS()."
func TestScenarioStaleWriterBurnsOneTimestamp(t *testing.T) {
	alg := sqrt.NewBounded(9)
	d := newDriver(t, alg, 9)

	want := func(pid int, exp timestamp.Timestamp) {
		t.Helper()
		if got := d.solo(pid); got != exp {
			t.Fatalf("p%d returned %v, want %v", pid, got, exp)
		}
	}

	want(0, ts(1, 0)) // opens phase 1
	want(1, ts(2, 0)) // opens phase 2

	// p2 runs until poised to invalidate R[1] (register index 0) — then
	// sleeps.
	d.parkAtWrite(2, 0)

	want(3, ts(2, 1)) // takes the invalidation p2 was about to perform
	want(4, ts(3, 0)) // opens phase 3
	want(5, ts(3, 1))
	want(6, ts(3, 2))
	want(7, ts(4, 0)) // opens phase 4

	// p2 wakes in phase 4: its write lands, it returns its phase-2
	// timestamp (2,1) — a duplicate of p3's, legal because the two calls
	// overlap.
	if got := d.release(2); got != ts(2, 1) {
		t.Fatalf("stale p2 returned %v, want (2, 1)", got)
	}

	// The stale write invalidated R[1] for phase 4: p8 skips turn 1
	// (repairing R[1] on the way, line 11) and returns (4, 2). Timestamp
	// (4,1) was burned.
	if got := d.solo(8); got != ts(4, 2) {
		t.Fatalf("p8 returned %v, want (4, 2): the stale write should burn (4,1)", got)
	}

	if err := hbcheck.Check(d.rec.Events()); err != nil {
		t.Fatalf("happens-before violated: %v", err)
	}
}

// The §6.1 line-15 race, benign form: two getTS instances scan the same
// state and both install R[2]; both return (2,0) (they are concurrent) and
// the phase proceeds correctly whichever write lands last.
func TestScenarioScanRaceDuplicatePhaseStart(t *testing.T) {
	alg := sqrt.NewBounded(4)
	d := newDriver(t, alg, 4)

	if got := d.solo(0); got != ts(1, 0) {
		t.Fatalf("p0 = %v", got)
	}

	// p1 and p2 both run to their line-15 write of R[2] (index 1).
	d.parkAtWrite(1, 1)
	d.parkAtWrite(2, 1)

	if got := d.release(1); got != ts(2, 0) {
		t.Fatalf("p1 = %v, want (2,0)", got)
	}
	if got := d.release(2); got != ts(2, 0) {
		t.Fatalf("p2 = %v, want (2,0) (racing scanner)", got)
	}
	// The racing overwrite must not disturb later callers.
	if got := d.solo(3); got != ts(2, 1) {
		t.Fatalf("p3 = %v, want (2,1)", got)
	}
	if err := hbcheck.Check(d.rec.Events()); err != nil {
		t.Fatalf("happens-before violated: %v", err)
	}
}

// sixOneRace drives the full dangerous interleaving of §6.1: two line-15
// writers with *different* views race; the out-of-date view lands second
// and would make already-invalidated registers valid again. With the
// line 10–11 repair the later walker keeps them invalid; without it the
// execution returns (3,1) after (3,2) — a specification violation.
//
// Schedule (paper notation, R[i] is mem index i−1):
//
//	p0 (1,0); p1 (2,0); p2 (2,1) invalidates R[1];
//	p3 walks to its line-15 write of R[3] — scan saw R[1]=⟨p2,2⟩ — parked;
//	p4 parked poised to invalidate R[1] with ⟨p4,2⟩ (stale);
//	release p4: R[1) now ⟨p4,2⟩, p4 returns (2,1) (dup, concurrent);
//	p5 walks to line-15 of R[3] — scan saw R[1]=⟨p4,2⟩ (fresher view);
//	release p3 first (stale view wins the race is NOT the dangerous order;
//	here the dangerous order is: p3 (stale) writes FIRST, "a" runs, then
//	p5 (fresh)... per §6.1 the danger is the baseline flipping validity
//	back; the repair must keep R[1] invalid either way);
//	p6 ("a"): sees R[1] invalid; repaired variant overwrites ⟨p6,3⟩ and
//	returns (3,2) [it takes R[2], the first valid register];
//	release p5: baseline flips to the view where R[1) holds ⟨p4,2⟩;
//	p7 ("b"): with repair R[1] stays invalid (⟨p6,3⟩ ≠ baseline ⟨p4⟩):
//	returns (4,0) eventually; without repair R[1] reads valid again and b
//	returns (3,1) < a's (3,2): violation.
func sixOneRace(t *testing.T, alg *sqrt.Alg) (aTS, bTS timestamp.Timestamp, hbErr error) {
	t.Helper()
	d := newDriver(t, alg, 8)

	mustEq := func(got, exp timestamp.Timestamp, who string) {
		t.Helper()
		if got != exp {
			t.Fatalf("%s returned %v, want %v", who, got, exp)
		}
	}

	mustEq(d.solo(0), ts(1, 0), "p0")
	mustEq(d.solo(1), ts(2, 0), "p1")

	// p4 poises to invalidate R[1] (index 0) while it is still valid — the
	// "old write" that will land between the two scans.
	d.parkAtWrite(4, 0)

	mustEq(d.solo(2), ts(2, 1), "p2")

	// p3: out-of-date scanner. Park at its line-15 write to R[3] (index 2);
	// its scan saw R[1] = ⟨p2, 2⟩.
	d.parkAtWrite(3, 2)

	// The old write lands: R[1] becomes ⟨p4, 2⟩; p4 returns the duplicate
	// (2,1) (legal: concurrent with p2).
	mustEq(d.release(4), ts(2, 1), "p4 (stale, duplicate of p2)")

	// p5: fresh scanner of the same phase boundary.
	d.parkAtWrite(5, 2)

	// Dangerous order: stale view p3 writes first and completes...
	mustEq(d.release(3), ts(3, 0), "p3")

	// "a" = p6 runs now, with p3's stale baseline in R[3].
	aTS = d.solo(6)

	// ...then the fresh-view p5 lands its R[3] write (the §6.1 flip).
	mustEq(d.release(5), ts(3, 0), "p5 (racing scanner)")

	// "b" = p7.
	bTS = d.solo(7)

	return aTS, bTS, hbcheck.Check(d.rec.Events())
}

func TestScenario61RepairHolds(t *testing.T) {
	a, b, err := sixOneRace(t, sqrt.NewBounded(8))
	if err != nil {
		t.Fatalf("repaired algorithm violated the spec: %v", err)
	}
	// a completed before b started: b must compare after a.
	if !timestamp.Less(a, b) {
		t.Fatalf("a=%v b=%v: not increasing", a, b)
	}
	t.Logf("repaired: a=%v then b=%v ✓", a, b)
}

func TestScenario61BrokenVariantViolates(t *testing.T) {
	a, b, err := sixOneRace(t, sqrt.NewWithoutRepair(8))
	if err == nil {
		// The broken variant must produce the §6.1 anomaly; if the checker
		// passed, the interleaving did not exercise the bug.
		t.Fatalf("expected a happens-before violation, got none (a=%v b=%v)", a, b)
	}
	var v hbcheck.Violation
	if !errors.As(err, &v) {
		t.Fatalf("unexpected error type %T: %v", err, err)
	}
	t.Logf("broken variant caught as expected: %v", v)
	if !timestamp.Less(b, a) {
		t.Fatalf("expected b=%v < a=%v (the §6.1 inversion)", b, a)
	}
}

// Sanity: the broken variant still passes sequential use (the bug needs
// the race), so the checker result above is attributable to the repair.
func TestBrokenVariantSequentiallyFine(t *testing.T) {
	alg := sqrt.NewWithoutRepair(12)
	got, err := engine.SequentialTimestamps(alg, 12, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := timestamp.CheckStrictlyIncreasing(got); err != nil {
		t.Fatal(err)
	}
	if alg.Name() != "sqrt-broken-norepair" {
		t.Errorf("Name = %q", alg.Name())
	}
}

// Exhaustive cross-check: all interleavings of 2 processes are fine even
// for the broken variant (the §6.1 bug needs ≥ 3 participants and a
// developed phase structure).
func TestBrokenVariantTwoProcExhaustive(t *testing.T) {
	if _, err := engine.Exhaustive(engine.Config{
		Alg:      sqrt.NewWithoutRepair(2),
		World:    engine.Simulated,
		N:        2,
		Workload: engine.OneShot{},
	}, engine.ExhaustiveOptions{MaxVisits: 3000}); err != nil {
		t.Fatal(err)
	}
}

func ExampleAlg_GetTS() {
	alg := sqrt.New(9) // one-shot object for 9 processes: ⌈2√9⌉ = 6 registers
	mem := timestamp.NewMem(alg)
	for pid := 0; pid < 4; pid++ {
		t, _ := alg.GetTS(mem, pid, 0)
		fmt.Println(t)
	}
	// Output:
	// (1, 0)
	// (2, 0)
	// (2, 1)
	// (3, 0)
}

// Randomized sweep of the §6.3 claims: many seeded batched-concurrency
// schedules, each trace checked against Claims 6.8, 6.10 and 6.13, the
// space budget, and the happens-before property.
func TestRandomizedPhaseInvariants(t *testing.T) {
	const n = 24
	for seed := int64(1); seed <= 30; seed++ {
		alg := sqrt.New(n)
		tracer := &sqrt.ChronoTracer{}
		alg.SetTracer(tracer)
		sys, rec := newSim(alg, n)
		rng := rand.New(rand.NewSource(seed))
		// Batches of random size 1..4 run concurrently; batches run in
		// sequence, so phases develop while real races still occur.
		next := 0
		for next < n {
			size := 1 + rng.Intn(4)
			if next+size > n {
				size = n - next
			}
			members := make([]int, size)
			for i := range members {
				members[i] = next + i
			}
			next += size
			for len(members) > 0 {
				k := rng.Intn(len(members))
				pid := members[k]
				if _, alive, err := sys.Pending(pid); err != nil {
					t.Fatal(err)
				} else if !alive {
					members = append(members[:k], members[k+1:]...)
					continue
				}
				if _, err := sys.Step(pid); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
		for pid := 0; pid < n; pid++ {
			if err := sys.Err(pid); err != nil {
				t.Fatalf("seed %d: p%d: %v", seed, pid, err)
			}
		}
		if err := hbcheck.Check(rec.Events()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := sqrt.AnalyzePhases(tracer.Events())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sqrt.VerifyCompletedPhases(rep); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.InvalidationWrites > 2*n {
			t.Fatalf("seed %d: invalidation writes %d > 2M", seed, rep.InvalidationWrites)
		}
		if rep.Phases > alg.Registers()-1 {
			t.Fatalf("seed %d: %d phases exceed budget", seed, rep.Phases)
		}
		sys.Close()
	}
}

// Lemma 2.1 made executable on Algorithm 4: in the initial configuration
// every process covers R[1] (its first write installs the phase-1 marker),
// so three disjoint singleton sets B0, B1, B2 cover R = {R[1]}. The lemma
// says that for some i ∈ {0,1}, every Ui-only execution from πBi(C)
// containing a complete getTS writes outside R. Here both sides do: after
// the block write the solo process finds phase 1 open and installs R[2].
func TestLemma21OnSqrt(t *testing.T) {
	for i := 0; i < 2; i++ {
		alg := sqrt.New(5)
		sys, _ := newSim(alg, 5)

		// p0, p1, p2 are B0, B1, B2: run each until poised to write; all
		// must cover register 0 (paper R[1]).
		for pid := 0; pid <= 2; pid++ {
			ok, err := sys.RunUntil(pid, func(op sched.Op) bool { return op.Kind == sched.OpWrite })
			if err != nil || !ok {
				t.Fatalf("p%d: ok=%v err=%v", pid, ok, err)
			}
			reg, covers, err := sys.Covers(pid)
			if err != nil || !covers || reg != 0 {
				t.Fatalf("p%d covers (r%d, %v, %v), want r0", pid, reg, covers, err)
			}
		}
		// Block write by B_i = {p_i}.
		if err := sys.BlockWrite(i); err != nil {
			t.Fatal(err)
		}
		// U_i = {p3+i} runs a complete solo getTS; it must write outside
		// R = {r0}.
		q := 3 + i
		if _, err := sys.Solo(q); err != nil {
			t.Fatal(err)
		}
		wroteOutside := false
		for _, op := range sys.Trace() {
			if op.Pid == q && op.Kind == sched.OpWrite && op.Reg != 0 {
				wroteOutside = true
			}
		}
		if !wroteOutside {
			t.Errorf("i=%d: solo getTS by p%d never wrote outside R", i, q)
		}
		sys.Close()
	}
}

// Wait-freedom witness (Lemma 6.14): the shared-memory step count of every
// getTS is bounded. The while-loop costs ≤ m reads, the for-loop ≤ m−2
// iterations of ≤ 2 reads + 1 write, and the scan's collects are bounded
// because every concurrent getTS writes < m times: with M total calls a
// scan retries at most (M−1)(m−1) times. We assert the much tighter
// empirical envelope 4m + 2m·(retries possible in our schedules) by
// measuring the true maximum across random schedules and checking it
// against the analytic worst case.
func TestWaitFreeStepBound(t *testing.T) {
	const n = 20
	alg := sqrt.New(n)
	m := alg.Registers()
	analytic := 2*m + 3*m + 2*m*(1+(n-1)*(m-1)) // loose Lemma 6.14 envelope

	maxSteps := 0
	for seed := int64(1); seed <= 10; seed++ {
		sys, _ := newSim(alg, n)
		rng := rand.New(rand.NewSource(seed))
		live := map[int]bool{}
		for pid := 0; pid < n; pid++ {
			live[pid] = true
		}
		for len(live) > 0 {
			// Pick a random live process.
			var pids []int
			for pid := range live {
				pids = append(pids, pid)
			}
			sort.Ints(pids)
			pid := pids[rng.Intn(len(pids))]
			if _, alive, err := sys.Pending(pid); err != nil {
				t.Fatal(err)
			} else if !alive {
				delete(live, pid)
				continue
			}
			if _, err := sys.Step(pid); err != nil {
				t.Fatal(err)
			}
		}
		perPid := map[int]int{}
		for _, op := range sys.Trace() {
			perPid[op.Pid]++
		}
		for _, c := range perPid {
			if c > maxSteps {
				maxSteps = c
			}
		}
		sys.Close()
	}
	if maxSteps > analytic {
		t.Errorf("max steps per getTS = %d exceeds the Lemma 6.14 envelope %d", maxSteps, analytic)
	}
	t.Logf("max shared-memory steps per getTS: %d (m=%d, analytic envelope %d)", maxSteps, m, analytic)
}

// The line-12 exit, the other half of §6.1's "damage confinement": a
// getTS that observes the phase advanced at a line-6 check terminates with
// (myrnd+1, 0) WITHOUT writing anything. Choreography: reach phase 3, let
// (3,1) be taken so R[1] is invalid; park p5 (myrnd=3) just before its
// second line-6 read (iteration j=2); let (3,2) and (4,0) complete; resume
// p5: its read sees R[4] ≠ ⊥ and it returns (4,0) with zero writes.
func TestScenarioLine12ExitWithoutWriting(t *testing.T) {
	alg := sqrt.NewBounded(9)
	d := newDriver(t, alg, 9)

	want := func(pid int, exp timestamp.Timestamp) {
		t.Helper()
		if got := d.solo(pid); got != exp {
			t.Fatalf("p%d returned %v, want %v", pid, got, exp)
		}
	}
	want(0, ts(1, 0))
	want(1, ts(2, 0))
	want(2, ts(2, 1))
	want(3, ts(3, 0))
	want(4, ts(3, 1)) // invalidates paper R[1], so p5's j=1 iteration fails

	// p5: myrnd = 3. Its j=1 iteration performs the line-6 read of mem[3]
	// and the line-7/10 read of mem[0] (invalid, rnd=3: no repair). Park it
	// at its SECOND line-6 read of mem[3] (iteration j=2).
	parkAtRead := func(pid, reg, skip int) {
		t.Helper()
		for i := 0; i <= skip; i++ {
			ok, err := d.sys.RunUntil(pid, func(op sched.Op) bool {
				return op.Kind == sched.OpRead && op.Reg == reg
			})
			if err != nil || !ok {
				t.Fatalf("park p%d at read r%d (#%d): ok=%v err=%v", pid, reg, i, ok, err)
			}
			if i < skip {
				if _, err := d.sys.Step(pid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	parkAtRead(5, 3, 1)

	want(6, ts(3, 2)) // takes the register p5 was heading for
	want(7, ts(4, 0)) // installs R[4]: the phase advances

	// Resume p5: the pending line-6 read executes, sees R[4] ≠ ⊥, and p5
	// exits via line 12 with (myrnd+1, 0) = (4, 0) — a duplicate of p7's,
	// legal because they overlap — having written nothing.
	if got := d.solo(5); got != ts(4, 0) {
		t.Fatalf("p5 = %v, want (4, 0) via line 12", got)
	}
	for _, op := range d.sys.Trace() {
		if op.Pid == 5 && op.Kind == sched.OpWrite {
			t.Fatalf("p5 wrote %v; the line-12 path writes nothing", op)
		}
	}
	if err := hbcheck.Check(d.rec.Events()); err != nil {
		t.Fatalf("happens-before violated: %v", err)
	}
}
