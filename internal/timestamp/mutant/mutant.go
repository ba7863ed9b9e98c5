// Package mutant holds deliberately broken timestamp implementations.
// They exist to validate the validators: a conformance harness that never
// rejects anything proves nothing, so the test suite and cmd/tscheck run
// these mutants through the same exhaustive exploration and fuzzing as the
// real algorithms and assert that a violation is found and shrunk to a
// small counterexample.
//
// The package complements the broken variants that live next to the real
// code (sqrt.NewWithoutRepair, dense.TwoSilent): those demonstrate specific
// failure modes from the paper, while these are generic implementation bugs
// of the kind the model checker is meant to catch.
package mutant

import (
	"fmt"
	"sync" //tslint:allow registeraccess the mutex guards mutant bookkeeping (stale-scan caches), not paper-visible register state

	"tsspace/internal/register"
	"tsspace/internal/timestamp"
)

// StaleScan is the collect algorithm with a classic caching bug: a
// process's first getTS() collects all registers honestly, but later calls
// reuse the maximum remembered from the previous call instead of
// re-collecting — a stale scan. A process therefore misses every timestamp
// published by OTHERS since its last call (its own is remembered): if p's
// first call returns 1, another process then finishes with 2, and p calls
// again, p returns 2 as well — the pair (2, 2) violates the happens-before
// specification, which demands strictly ordered timestamps for
// non-overlapping calls. Solo runs and the by-process sequential baseline
// pass, which is exactly why catching it takes systematic exploration of
// interleavings rather than hand-picked schedules.
//
// The cached maximum lives in the instance, not in the registers, so a
// fresh instance must be constructed per execution when replaying
// (engine.ExhaustiveOptions.NewAlg); within one execution the cache is a
// deterministic function of the values the process read, which keeps
// exploration and replay sound.
type StaleScan struct {
	n     int
	mu    sync.Mutex
	cache map[int]int64
}

var _ timestamp.Algorithm = (*StaleScan)(nil)

func init() {
	timestamp.Register(timestamp.Info{
		Name:         "collect-stale-scan",
		Summary:      "collect with a stale-scan caching bug (caught by exploration; replays tscheck counterexamples)",
		New:          func(n int) timestamp.Algorithm { return NewStaleScan(n) },
		ExploreCalls: 2,
		Mutant:       true,
	})
}

// NewStaleScan returns the broken collect variant for n processes.
func NewStaleScan(n int) *StaleScan {
	if n < 1 {
		panic(fmt.Sprintf("mutant: invalid process count %d", n))
	}
	return &StaleScan{n: n, cache: make(map[int]int64)}
}

// Name identifies the mutant in reports.
func (a *StaleScan) Name() string { return "collect-stale-scan" }

// Registers returns n, like collect.
func (a *StaleScan) Registers() int { return a.n }

// OneShot reports false: the bug only bites on repeated calls.
func (a *StaleScan) OneShot() bool { return false }

// WriterTable declares collect's single-writer discipline.
func (a *StaleScan) WriterTable() int { return 1 }

// GetTS collects honestly on a process's first call and from the stale
// cache afterwards.
func (a *StaleScan) GetTS(mem register.Mem, pid, seq int) (timestamp.Timestamp, error) {
	if pid < 0 || pid >= a.n {
		return timestamp.Timestamp{}, fmt.Errorf("mutant: pid %d out of range [0,%d)", pid, a.n)
	}
	var max int64
	if seq == 0 {
		max = mem.MaxInt64(a.n)
	} else {
		// BUG: reuse the previous call's view instead of re-collecting.
		a.mu.Lock()
		max = a.cache[pid]
		a.mu.Unlock()
	}
	ts := max + 1
	a.mu.Lock()
	a.cache[pid] = ts // own write is remembered, other processes' are missed
	a.mu.Unlock()
	mem.WriteInt64(pid, ts)
	return timestamp.Timestamp{Rnd: ts}, nil
}
