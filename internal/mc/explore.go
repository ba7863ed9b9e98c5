// Package mc is a partial-order-reduced model checker for systems driven by
// the deterministic scheduler in internal/sched.
//
// The naive exploration in sched.Explore enumerates every maximal
// interleaving of the processes' operations — multinomially many, although
// most interleavings differ only in the order of commuting operations and
// are therefore indistinguishable to the algorithm under test. This package
// explores at least one representative of every Mazurkiewicz equivalence
// class of maximal executions while pruning the rest, using three classic
// reductions:
//
//   - Sleep sets: after a branch through process p has been fully explored,
//     sibling branches need not schedule p again until an operation
//     dependent with p's pending operation executes — every execution they
//     could reach through p is equivalent to one already explored.
//   - Persistent sets: when a static over-approximation of the registers
//     each process may still touch (a Footprint) shows that a subset of the
//     enabled processes cannot ever interfere with the others, exploring
//     only that subset at this state is sound.
//   - State hashing: prefixes are canonicalized to the Foata normal form of
//     their trace; two equivalent prefixes reach identical global states
//     and only the first is expanded.
//
// Properties checked on visited executions must be invariant under the
// equivalence (a pruned execution is only represented by an equivalent
// one). CausalCheck is such a checker for the timestamp happens-before
// specification: it verifies every ordering of getTS calls realizable in
// the visited execution's whole equivalence class, which both covers the
// pruned members and catches violations that a single interleaving's
// interval order would miss.
//
// With every reduction off (the zero Options), Explore is itself a naive
// DFS: it is the one internal/engine runs for the E11 baseline, and
// sched.Explore stays as the independent naive reference this package's
// tests compare both modes against.
package mc

import (
	"fmt"
	"sort"

	"tsspace/internal/sched"
)

// Footprint over-approximates the register accesses a process may still
// perform over the remainder of its program: any register the process could
// ever read must be in reads, any it could ever write in writes. Returning
// nil, nil declares the footprint unknown, which makes the process conflict
// with everyone (always sound). The explorer queries footprints once per
// process per exploration.
type Footprint func(pid int) (reads, writes []int)

// Options configures an exploration. The zero value is a naive exhaustive
// DFS; WithPOR returns the full reduction stack.
type Options struct {
	// MaxVisits caps the number of complete executions visited (0 =
	// unlimited). Exploration stops cleanly at the cap.
	MaxVisits int
	// MaxSteps bounds schedule length as a runaway guard (0 = 100000).
	MaxSteps int
	// SleepSets enables sleep-set pruning.
	SleepSets bool
	// StateHash enables canonical-prefix hashing.
	StateHash bool
	// Footprint, when non-nil, enables persistent-set computation.
	Footprint Footprint
}

// WithPOR returns options with every reduction enabled (persistent sets
// only if fp is non-nil).
func WithPOR(fp Footprint) Options {
	return Options{SleepSets: true, StateHash: true, Footprint: fp}
}

// Stats reports what an exploration did. Visited counts complete
// executions — the number a naive DFS of the same system would multiply by
// the reciprocal of the reduction.
type Stats struct {
	Visited     int // complete executions checked
	Nodes       int // states expanded (including terminal ones)
	SleepPruned int // scheduling choices skipped by sleep sets
	HashPruned  int // prefixes merged with an equivalent explored prefix
	States      int // distinct canonical states recorded
	MaxDepth    int // longest schedule observed
}

// String renders the stats one-line.
func (s Stats) String() string {
	return fmt.Sprintf("visited %d schedules (%d states expanded, %d sleep-pruned, %d hash-merged, %d canonical states, depth ≤ %d)",
		s.Visited, s.Nodes, s.SleepPruned, s.HashPruned, s.States, s.MaxDepth)
}

// ScheduleError wraps a property violation together with the complete
// schedule that produced it, so callers can replay and shrink it.
type ScheduleError struct {
	Schedule []int
	Err      error
}

// Error renders the schedule and cause.
func (e *ScheduleError) Error() string {
	return fmt.Sprintf("mc: schedule %v: %v", e.Schedule, e.Err)
}

// Unwrap returns the underlying property violation.
func (e *ScheduleError) Unwrap() error { return e.Err }

// Explore runs the partial-order-reduced search over the system the
// factory builds, calling visit on one representative of every equivalence
// class of maximal executions. A visit error aborts the search and is
// returned wrapped in a *ScheduleError.
func Explore(factory sched.Factory, opt Options, visit sched.Visit) (Stats, error) {
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = 100_000
	}
	e := &explorer{factory: factory, opt: opt, visit: visit}
	if opt.StateHash {
		e.seen = make(map[string]struct{})
	}
	if opt.Footprint != nil {
		e.footprints = make(map[int]*footprint)
	}
	err := e.dfs(nil, nil)
	if err == errVisitCap {
		err = nil
	}
	e.stats.States = len(e.seen)
	return e.stats, err
}

var errVisitCap = fmt.Errorf("mc: visit cap reached")

// sleeper is a sleep-set entry: a process together with the operation it
// was poised to perform when it was put to sleep. The process has not been
// scheduled since, so the operation is still its pending one.
type sleeper struct {
	pid int
	op  sched.Op
}

type explorer struct {
	factory    sched.Factory
	opt        Options
	visit      sched.Visit
	stats      Stats
	seen       map[string]struct{}
	footprints map[int]*footprint
}

// dfs expands the state reached by prefix. sleep lists processes whose
// scheduling here is provably redundant.
func (e *explorer) dfs(prefix []int, sleep []sleeper) error {
	if len(prefix) > e.opt.MaxSteps {
		return fmt.Errorf("mc: exploration exceeded %d steps; runaway process?", e.opt.MaxSteps)
	}
	if len(prefix) > e.stats.MaxDepth {
		e.stats.MaxDepth = len(prefix)
	}

	// Replay the prefix on a fresh system.
	sys := e.factory()
	defer sys.Close()
	if err := sys.Run(prefix...); err != nil {
		return fmt.Errorf("mc: replaying prefix %v: %w", prefix, err)
	}
	e.stats.Nodes++

	// Merge with an already-explored equivalent prefix, if any.
	if e.seen != nil {
		key := canonicalKey(sys.Trace())
		if _, ok := e.seen[key]; ok {
			e.stats.HashPruned++
			return nil
		}
		e.seen[key] = struct{}{}
	}

	// Collect the enabled processes and their pending operations.
	var enabled []sleeper
	for pid := 0; pid < sys.N(); pid++ {
		op, alive, err := sys.Pending(pid)
		if err != nil {
			return err
		}
		if alive {
			enabled = append(enabled, sleeper{pid: pid, op: op})
		}
	}
	if len(enabled) == 0 {
		e.stats.Visited++
		if err := e.visit(sys, prefix); err != nil {
			return &ScheduleError{Schedule: append([]int(nil), prefix...), Err: err}
		}
		if e.opt.MaxVisits > 0 && e.stats.Visited >= e.opt.MaxVisits {
			return errVisitCap
		}
		return nil
	}

	// Restrict to a persistent set when footprints permit one.
	targets := enabled
	if e.footprints != nil {
		targets = e.persistentSet(enabled)
	}

	// Expand, threading the sleep set: a process explored here is put to
	// sleep for its later siblings, and a sleeping process wakes in the
	// child only if the executed operation is dependent with its pending
	// one.
	asleep := append([]sleeper(nil), sleep...)
	for _, t := range targets {
		if indexOf(asleep, t.pid) >= 0 {
			e.stats.SleepPruned++
			continue
		}
		var childSleep []sleeper
		if e.opt.SleepSets {
			for _, s := range asleep {
				if !Dependent(s.op, t.op) {
					childSleep = append(childSleep, s)
				}
			}
		}
		if err := e.dfs(append(prefix[:len(prefix):len(prefix)], t.pid), childSleep); err != nil {
			return err
		}
		if e.opt.SleepSets {
			asleep = append(asleep, t)
		}
	}
	return nil
}

func indexOf(ss []sleeper, pid int) int {
	for i, s := range ss {
		if s.pid == pid {
			return i
		}
	}
	return -1
}

// footprint is a resolved Footprint answer for one process.
type footprint struct {
	reads, writes map[int]bool
	unknown       bool
}

func (e *explorer) footprintFor(pid int) *footprint {
	if fp, ok := e.footprints[pid]; ok {
		return fp
	}
	reads, writes := e.opt.Footprint(pid)
	fp := &footprint{}
	if reads == nil && writes == nil {
		fp.unknown = true
	} else {
		fp.reads = make(map[int]bool, len(reads))
		for _, r := range reads {
			fp.reads[r] = true
		}
		fp.writes = make(map[int]bool, len(writes))
		for _, w := range writes {
			fp.writes[w] = true
		}
	}
	e.footprints[pid] = fp
	return fp
}

// conflicts reports whether any future operation of a process with
// footprint a may be dependent with any future operation of one with
// footprint b: a write of one touching anything the other accesses.
func conflicts(a, b *footprint) bool {
	if a.unknown || b.unknown {
		return true
	}
	for w := range a.writes {
		if b.reads[w] || b.writes[w] {
			return true
		}
	}
	for w := range b.writes {
		if a.reads[w] {
			return true
		}
	}
	return false
}

// persistentSet returns the smallest conflict-closed subset of the enabled
// processes obtainable by seeding the closure from each one in turn. A set
// P is persistent because no process outside P can ever perform an
// operation dependent with any future operation of a member — its whole
// footprint is disjoint — so every execution deferring P is equivalent to
// one taking a P-step first.
func (e *explorer) persistentSet(enabled []sleeper) []sleeper {
	best := enabled
	for _, seed := range enabled {
		in := map[int]bool{seed.pid: true}
		for changed := true; changed; {
			changed = false
			for _, q := range enabled {
				if in[q.pid] {
					continue
				}
				for p := range in {
					if conflicts(e.footprintFor(p), e.footprintFor(q.pid)) {
						in[q.pid] = true
						changed = true
						break
					}
				}
			}
		}
		if len(in) < len(best) {
			set := make([]sleeper, 0, len(in))
			for _, t := range enabled {
				if in[t.pid] {
					set = append(set, t)
				}
			}
			best = set
		}
	}
	sort.Slice(best, func(i, j int) bool { return best[i].pid < best[j].pid })
	return best
}
