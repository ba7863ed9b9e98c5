package mc_test

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"tsspace/internal/mc"
	"tsspace/internal/register"
	"tsspace/internal/sched"
)

// factoryFor builds a factory over per-process straight-line programs.
func factoryFor(n, m int, prog func(pid int, mem register.Mem)) sched.Factory {
	return func() *sched.System {
		return sched.New(n, m, func(pid int, mem register.Mem) (any, error) {
			prog(pid, mem)
			return nil, nil
		})
	}
}

func explore(t *testing.T, f sched.Factory, opt mc.Options) mc.Stats {
	t.Helper()
	stats, err := mc.Explore(f, opt, func(sys *sched.System, schedule []int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func naiveVisits(t *testing.T, f sched.Factory) int {
	t.Helper()
	visits, err := sched.Explore(f, 0, 10_000, func(sys *sched.System, schedule []int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return visits
}

// Two processes writing distinct registers commute entirely: one class.
func TestSleepSetsCollapseIndependentWrites(t *testing.T) {
	f := factoryFor(2, 2, func(pid int, mem register.Mem) {
		mem.Write(pid, int64(pid))
	})
	if n := naiveVisits(t, f); n != 2 {
		t.Fatalf("naive visits = %d, want 2", n)
	}
	stats := explore(t, f, mc.Options{SleepSets: true})
	if stats.Visited != 1 {
		t.Errorf("sleep-set visits = %d, want 1 (stats: %v)", stats.Visited, stats)
	}
	if stats.SleepPruned == 0 {
		t.Error("expected sleep-set pruning to trigger")
	}
}

// State hashing alone merges the two equivalent interleavings of two
// independent reads.
func TestStateHashMergesEquivalentPrefixes(t *testing.T) {
	f := factoryFor(2, 1, func(pid int, mem register.Mem) {
		mem.Read(0)
	})
	stats := explore(t, f, mc.Options{StateHash: true})
	if stats.Visited != 1 {
		t.Errorf("hashed visits = %d, want 1 (stats: %v)", stats.Visited, stats)
	}
	if stats.HashPruned == 0 {
		t.Error("expected a hash merge")
	}
}

// Conflicting writes to one register do NOT merge: both orders are
// distinct classes and must both be visited.
func TestConflictingWritesStayDistinct(t *testing.T) {
	f := factoryFor(2, 1, func(pid int, mem register.Mem) {
		mem.Write(0, int64(pid))
	})
	stats := explore(t, f, mc.WithPOR(nil))
	if stats.Visited != 2 {
		t.Errorf("POR visits = %d, want 2 (both write orders)", stats.Visited)
	}
}

// One write racing two reads of the same register: 3! = 6 interleavings,
// but only the read/write relative orders matter: 2 × 2 = 4 classes.
func TestClassCountWriteVersusTwoReads(t *testing.T) {
	f := factoryFor(3, 1, func(pid int, mem register.Mem) {
		if pid == 0 {
			mem.Write(0, int64(7))
		} else {
			mem.Read(0)
		}
	})
	if n := naiveVisits(t, f); n != 6 {
		t.Fatalf("naive visits = %d, want 6", n)
	}
	stats := explore(t, f, mc.WithPOR(nil))
	if stats.Visited != 4 {
		t.Errorf("POR visits = %d, want 4 (stats: %v)", stats.Visited, stats)
	}
}

// A static footprint proving the processes disjoint lets the persistent
// set collapse the exploration to a single schedule even with sleep sets
// and hashing disabled.
func TestPersistentSetsDisjointFootprints(t *testing.T) {
	f := factoryFor(2, 2, func(pid int, mem register.Mem) {
		for k := 0; k < 3; k++ {
			mem.Write(pid, int64(k))
			mem.Read(pid)
		}
	})
	if n := naiveVisits(t, f); n == 1 {
		t.Fatal("naive exploration unexpectedly trivial")
	}
	fp := func(pid int) (reads, writes []int) {
		return []int{pid}, []int{pid}
	}
	stats := explore(t, f, mc.Options{Footprint: fp})
	if stats.Visited != 1 {
		t.Errorf("persistent-set visits = %d, want 1 (stats: %v)", stats.Visited, stats)
	}
}

// An unknown footprint must degrade to the full enabled set.
func TestPersistentSetsUnknownFootprint(t *testing.T) {
	f := factoryFor(2, 2, func(pid int, mem register.Mem) {
		mem.Write(pid, int64(pid))
	})
	fp := func(pid int) (reads, writes []int) { return nil, nil }
	stats := explore(t, f, mc.Options{Footprint: fp})
	if stats.Visited != 2 {
		t.Errorf("visits = %d, want 2 (unknown footprints must not prune)", stats.Visited)
	}
}

// A visit error surfaces as a ScheduleError carrying the schedule.
func TestScheduleErrorCarriesSchedule(t *testing.T) {
	f := factoryFor(2, 1, func(pid int, mem register.Mem) {
		mem.Write(0, int64(pid))
	})
	boom := errors.New("boom")
	_, err := mc.Explore(f, mc.Options{}, func(sys *sched.System, schedule []int) error {
		if len(schedule) == 2 && schedule[0] == 1 {
			return boom
		}
		return nil
	})
	var se *mc.ScheduleError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ScheduleError", err)
	}
	if !reflect.DeepEqual(se.Schedule, []int{1, 0}) {
		t.Errorf("schedule = %v, want [1 0]", se.Schedule)
	}
	if !errors.Is(err, boom) {
		t.Error("cause not unwrapped")
	}
}

func TestMaxVisitsCapStopsCleanly(t *testing.T) {
	f := factoryFor(3, 1, func(pid int, mem register.Mem) {
		mem.Write(0, int64(pid))
	})
	stats, err := mc.Explore(f, mc.Options{MaxVisits: 2}, func(*sched.System, []int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Visited != 2 {
		t.Errorf("visited = %d, want exactly the cap", stats.Visited)
	}
}

// TestPORCoversExactlyTheNaiveClasses is the differential soundness test
// the whole reduction rests on: over a range of conflict-heavy systems,
// the set of Mazurkiewicz classes (canonical trace fingerprints) visited
// by the full POR stack must EQUAL the class set underlying the naive
// enumeration — nothing lost to over-pruning (sleep sets composed with
// prefix merging is classically where classes go missing), nothing
// visited twice.
func TestPORCoversExactlyTheNaiveClasses(t *testing.T) {
	systems := []struct {
		name string
		n, m int
		prog func(pid int, mem register.Mem)
	}{
		{"write-race", 3, 1, func(pid int, mem register.Mem) {
			mem.Write(0, int64(pid))
		}},
		{"collect-like", 3, 3, func(pid int, mem register.Mem) {
			for i := 0; i < 3; i++ {
				mem.Read(i)
			}
			mem.Write(pid, int64(pid+1))
		}},
		{"mixed-conflicts", 3, 2, func(pid int, mem register.Mem) {
			switch pid {
			case 0:
				mem.Write(0, int64(1))
				mem.Read(1)
			case 1:
				mem.Read(0)
				mem.Write(1, int64(2))
			default:
				mem.Read(0)
				mem.Read(1)
				mem.Write(0, int64(3))
			}
		}},
		{"two-calls", 2, 2, func(pid int, mem register.Mem) {
			for k := 0; k < 2; k++ {
				mem.Read(1 - pid)
				mem.Write(pid, int64(10*pid+k))
			}
		}},
	}
	for _, s := range systems {
		t.Run(s.name, func(t *testing.T) {
			f := factoryFor(s.n, s.m, s.prog)
			naiveClasses := map[string]bool{}
			naive, err := sched.Explore(f, 0, 10_000, func(sys *sched.System, _ []int) error {
				naiveClasses[mc.CanonicalKey(sys.Trace())] = true
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// With every reduction off, mc.Explore is the naive DFS (E11's
			// naive column): it must visit exactly what sched.Explore does.
			if plain := explore(t, f, mc.Options{}); plain.Visited != naive {
				t.Errorf("mc.Explore without reductions visited %d, sched.Explore %d", plain.Visited, naive)
			}
			porClasses := map[string]bool{}
			stats, err := mc.Explore(f, mc.WithPOR(nil), func(sys *sched.System, schedule []int) error {
				key := mc.CanonicalKey(sys.Trace())
				if porClasses[key] {
					t.Errorf("class visited twice: schedule %v", schedule)
				}
				porClasses[key] = true
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for key := range naiveClasses {
				if !porClasses[key] {
					t.Errorf("class missed by POR: %s", key)
				}
			}
			for key := range porClasses {
				if !naiveClasses[key] {
					t.Errorf("POR visited a class naive never produced: %s", key)
				}
			}
			t.Logf("%s: %d interleavings, %d classes, POR visited %d", s.name, naive, len(naiveClasses), stats.Visited)
		})
	}
}

// --- CausalCheck ---

func intLess(a, b int64) bool { return a < b }

// Two fully independent calls are realizable in both orders; no total
// assignment of strict compare results can satisfy both, so the checker
// must flag them — even though the single visited interleaving, checked by
// interval order alone, looks fine.
func TestCausalCheckFlagsCommutingCalls(t *testing.T) {
	trace := []sched.Op{
		{Pid: 0, Kind: sched.OpWrite, Reg: 0, Val: int64(1)},
		{Pid: 1, Kind: sched.OpWrite, Reg: 1, Val: int64(2)},
	}
	calls := []mc.Call[int64]{
		{Pid: 0, Seq: 0, First: 0, Last: 0, Val: 1},
		{Pid: 1, Seq: 0, First: 0, Last: 0, Val: 2},
	}
	err := mc.CausalCheck(2, trace, calls, intLess)
	var v mc.Violation[int64]
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, want Violation (both orders realizable)", err)
	}
}

// Calls ordered by a write-write conflict impose the obligation one way
// only.
func TestCausalCheckOrderedByConflict(t *testing.T) {
	trace := []sched.Op{
		{Pid: 0, Kind: sched.OpWrite, Reg: 0, Val: int64(1)},
		{Pid: 1, Kind: sched.OpWrite, Reg: 0, Val: int64(2)},
	}
	calls := []mc.Call[int64]{
		{Pid: 0, Seq: 0, First: 0, Last: 0, Val: 1},
		{Pid: 1, Seq: 0, First: 0, Last: 0, Val: 2},
	}
	if err := mc.CausalCheck(2, trace, calls, intLess); err != nil {
		t.Errorf("correctly ordered timestamps flagged: %v", err)
	}
	// Swap the returned values: now the forced order contradicts compare.
	calls[0].Val, calls[1].Val = 2, 1
	if err := mc.CausalCheck(2, trace, calls, intLess); err == nil {
		t.Error("inverted timestamps on a forced order not flagged")
	}
}

// Transitive dependency through a third process's write orders two reads
// that never touch a common register with a write directly: p1 read r0
// before the write, p0 read r0 after it, so p0's call can never complete
// before p1's begins.
func TestCausalCheckTransitiveOrder(t *testing.T) {
	trace := []sched.Op{
		{Pid: 1, Kind: sched.OpRead, Reg: 0},
		{Pid: 2, Kind: sched.OpWrite, Reg: 0, Val: int64(9)},
		{Pid: 0, Kind: sched.OpRead, Reg: 0},
	}
	calls := []mc.Call[int64]{
		{Pid: 0, Seq: 0, First: 0, Last: 0, Val: 5},
		{Pid: 1, Seq: 0, First: 0, Last: 0, Val: 5},
	}
	// Equal timestamps: legal only because neither call can fully precede
	// the other... but p1's CAN precede p0's, demanding compare(5,5)=true.
	err := mc.CausalCheck(3, trace, calls, intLess)
	var v mc.Violation[int64]
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, want Violation (p1's call precedes p0's)", err)
	}
	if v.First.Pid != 1 || v.Second.Pid != 0 {
		t.Errorf("violation pair = p%d→p%d, want p1→p0", v.First.Pid, v.Second.Pid)
	}
	// The reverse direction must NOT have been flagged as realizable:
	// give the pair correctly ordered values and the check passes.
	calls[1].Val = 4 // p1's earlier call gets the smaller timestamp
	if err := mc.CausalCheck(3, trace, calls, intLess); err != nil {
		t.Errorf("correctly ordered transitive pair flagged: %v", err)
	}
}

// Operation-free calls are exempt from ordering obligations.
func TestCausalCheckOpFreeCallExempt(t *testing.T) {
	trace := []sched.Op{{Pid: 0, Kind: sched.OpWrite, Reg: 0, Val: int64(1)}}
	calls := []mc.Call[int64]{
		{Pid: 0, Seq: 0, First: 0, Last: 0, Val: 2},
		{Pid: 1, Seq: 0, First: -1, Last: -1, Val: 1},
	}
	if err := mc.CausalCheck(2, trace, calls, intLess); err != nil {
		t.Errorf("op-free call imposed an obligation: %v", err)
	}
}

// --- Shrink ---

func TestShrinkMinimizes(t *testing.T) {
	count := func(c []int, v int) int {
		n := 0
		for _, x := range c {
			if x == v {
				n++
			}
		}
		return n
	}
	fails := func(c []int) bool { return count(c, 0) >= 2 && count(c, 1) >= 1 }
	in := []int{2, 0, 1, 0, 2, 1, 0, 0, 1, 2}
	out := mc.Shrink(in, fails)
	if len(out) != 3 {
		t.Fatalf("shrunk to %v (len %d), want a 3-step schedule", out, len(out))
	}
	sorted := append([]int(nil), out...)
	sort.Ints(sorted)
	if !reflect.DeepEqual(sorted, []int{0, 0, 1}) {
		t.Errorf("shrunk to %v, want two 0s and a 1", out)
	}
}

func TestShrinkNonFailingInputUnchanged(t *testing.T) {
	in := []int{1, 2, 3}
	out := mc.Shrink(in, func([]int) bool { return false })
	if !reflect.DeepEqual(out, in) {
		t.Errorf("non-failing schedule changed: %v", out)
	}
}
