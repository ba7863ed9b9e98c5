// Package mc is a partial-order-reduced model checker for systems driven by
// the deterministic scheduler in internal/sched.
//
// The naive exploration in sched.Explore enumerates every maximal
// interleaving of the processes' operations — multinomially many, although
// most interleavings differ only in the order of commuting operations and
// are therefore indistinguishable to the algorithm under test. Explore
// visits at least one representative of every Mazurkiewicz equivalence
// class of maximal executions and prunes the rest with one classic
// reduction, sleep sets (Godefroid, Partial-Order Methods for the
// Verification of Concurrent Systems, 1996): after a branch through
// process p has been fully explored, sibling branches need not schedule p
// again until an operation dependent with p's pending operation executes —
// every execution they could reach through p is equivalent to one already
// explored.
//
// Properties checked on visited executions must be invariant under the
// equivalence (a pruned execution is only represented by an equivalent
// one). CausalCheck is such a checker for the timestamp happens-before
// specification: it verifies every ordering of getTS calls realizable in
// the visited execution's whole equivalence class, which both covers the
// pruned members and catches violations that a single interleaving's
// interval order would miss.
//
// With sleep sets off (the zero Options), Explore is itself a naive DFS.
// Count gives the number of executions that DFS would visit without
// enumerating them, and sched.Explore stays as the independent naive
// reference this package's tests compare both against.
package mc

import (
	"fmt"
	"math/big"

	"tsspace/internal/sched"
)

// maxSteps bounds schedule length as a runaway guard.
const maxSteps = 100_000

// Options configures an exploration. The zero value is a naive exhaustive
// DFS.
type Options struct {
	// MaxVisits caps the number of complete executions visited (0 =
	// unlimited). Exploration stops cleanly at the cap.
	MaxVisits int
	// SleepSets enables sleep-set pruning.
	SleepSets bool
}

// Stats reports what an exploration did. Visited counts complete
// executions — the number a naive DFS of the same system would multiply by
// the reciprocal of the reduction.
type Stats struct {
	Visited     int // complete executions checked
	Nodes       int // states expanded (including terminal ones)
	SleepPruned int // scheduling choices skipped by sleep sets
	MaxDepth    int // longest schedule observed
}

// String renders the stats one-line.
func (s Stats) String() string {
	return fmt.Sprintf("visited %d schedules (%d states expanded, %d sleep-pruned, depth ≤ %d)",
		s.Visited, s.Nodes, s.SleepPruned, s.MaxDepth)
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

// Explore searches the system the factory builds, calling visit on one
// representative of every equivalence class of maximal executions when
// sleep sets are on, and on every maximal execution when they are off. A
// visit error aborts the search and is returned wrapped in a
// *ScheduleError.
func Explore(factory sched.Factory, opt Options, visit sched.Visit) (Stats, error) {
	e := &explorer{factory: factory, opt: opt, visit: visit}
	err := e.dfs(nil, nil)
	if err == errVisitCap {
		err = nil
	}
	return e.stats, err
}

var errVisitCap = fmt.Errorf("mc: visit cap reached")

// sleeper is a process together with its pending operation: an enabled
// process, or a sleep-set entry. A sleeping process has not been scheduled
// since it was put to sleep, so the operation is still its pending one.
type sleeper struct {
	pid int
	op  sched.Op
}

// replay runs prefix on a fresh system and lists the enabled processes.
// The caller closes the returned system.
func replay(factory sched.Factory, prefix []int) (*sched.System, []sleeper, error) {
	if len(prefix) > maxSteps {
		return nil, nil, fmt.Errorf("mc: exploration exceeded %d steps; runaway process?", maxSteps)
	}
	sys := factory()
	if err := sys.Run(prefix...); err != nil {
		sys.Close()
		return nil, nil, fmt.Errorf("mc: replaying prefix %v: %w", prefix, err)
	}
	var enabled []sleeper
	for pid := 0; pid < sys.N(); pid++ {
		op, alive, err := sys.Pending(pid)
		if err != nil {
			sys.Close()
			return nil, nil, err
		}
		if alive {
			enabled = append(enabled, sleeper{pid: pid, op: op})
		}
	}
	return sys, enabled, nil
}

type explorer struct {
	factory sched.Factory
	opt     Options
	visit   sched.Visit
	stats   Stats
}

// dfs expands the state reached by prefix. sleep lists processes whose
// scheduling here is provably redundant.
func (e *explorer) dfs(prefix []int, sleep []sleeper) error {
	sys, enabled, err := replay(e.factory, prefix)
	if err != nil {
		return err
	}
	defer sys.Close()
	e.stats.Nodes++
	e.stats.MaxDepth = max(e.stats.MaxDepth, len(prefix))

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

	// Expand, threading the sleep set: a process explored here is put to
	// sleep for its later siblings, and a sleeping process wakes in the
	// child only if the executed operation is dependent with its pending
	// one.
	asleep := append([]sleeper(nil), sleep...)
	for _, t := range enabled {
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

// Count returns the number of maximal schedules of the system the factory
// builds: what sched.Explore, or Explore with sleep sets off, would visit,
// counted without enumerating them. Equivalent prefixes reach the same
// state, so the number of maximal schedules below a prefix depends only on
// its class, and Count memoizes it by the class's canonical key. It looks a
// child's class up before replaying the child, so each prefix class is
// replayed once. The count is exact: the schedules of four one-shot sqrt
// processes already number more than 2^64.
func Count(factory sched.Factory) (*big.Int, error) {
	c := &counter{factory: factory, keys: keyer{}, memo: make(map[string]*big.Int)}
	return c.count(nil)
}

type counter struct {
	factory sched.Factory
	keys    keyer
	memo    map[string]*big.Int // prefix class → maximal schedules below it
}

func (c *counter) count(prefix []int) (*big.Int, error) {
	sys, enabled, err := replay(c.factory, prefix)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if len(enabled) == 0 {
		return big.NewInt(1), nil
	}
	trace := sys.Trace()
	total := new(big.Int)
	for _, t := range enabled {
		key := c.keys.key(append(trace[:len(trace):len(trace)], t.op))
		below, ok := c.memo[key]
		if !ok {
			if below, err = c.count(append(prefix[:len(prefix):len(prefix)], t.pid)); err != nil {
				return nil, err
			}
			c.memo[key] = below
		}
		total.Add(total, below)
	}
	return total, nil
}
