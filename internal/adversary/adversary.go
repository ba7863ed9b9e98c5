// Package adversary drives Algorithm 4 (internal/timestamp/sqrt) through
// worst-case schedules in the deterministic scheduler, measuring how much
// of the ⌈2√M⌉ register budget an adversary can actually force.
//
// The space analysis of §6.3 charges every invalidation write to one of at
// most two writes per getTS: its first invalidation write and its last
// write (Claim 6.13, ≤ 2M in total), giving Φ(Φ+1)/2 ≤ 2M and hence
// Φ < 2√M phases. A sequential execution is far from this bound: each
// phase k consumes k getTS calls, so Φ ≈ √(2M) ≈ 0.71·(2√M). The gap is
// exactly the "stale writer" slack discussed in §6.1: a getTS paused while
// poised to write an invalidation for phase k can be released during a
// later phase k′, where its write invalidates a register of phase k′
// without consuming a fresh getTS — its one write is charged twice.
//
// StaleRelease implements that adversary: it parks every in-phase
// invalidation write it can and releases parked writers after the phase
// advances, inflating the number of phases (and therefore registers)
// toward the 2√M ceiling.
package adversary

import (
	"fmt"

	"tsspace/internal/engine"
	"tsspace/internal/hbcheck"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
	"tsspace/internal/timestamp/sqrt"
)

// Result reports one adversarial run.
type Result struct {
	M          int // getTS budget (= processes, one-shot)
	Registers  int // allocated: ⌈2√M⌉
	Phases     int // non-⊥ registers at the end (= highest phase started)
	Written    int // distinct registers written
	Sequential int // phases a purely sequential execution reaches, for contrast
	Steps      int // scheduler steps taken
	Timestamps []timestamp.Timestamp
}

// parked is a process paused while poised to write.
type parked struct {
	pid int
	rnd int // Cell.Rnd of the pending write
}

// StaleRelease runs the one-shot sqrt object for n processes under the
// stale-writer adversary and returns the measured space. The execution is
// deterministic. The returned timestamps passed the happens-before check
// implied by construction (each process runs a complete getTS; ordering
// assertions are the caller's concern via the recorder).
func StaleRelease(n int) (*Result, error) {
	alg := sqrt.New(n)
	sys, rec, _ := engine.NewSimSystem(engine.Config{
		Alg:      alg,
		World:    engine.Simulated,
		N:        n,
		Workload: engine.OneShot{},
	})
	defer sys.Close()

	res := &Result{M: n, Registers: alg.Registers()}

	maxRnd := func() int {
		// The current phase ceiling: number of non-⊥ registers.
		k := 0
		for k < sys.M() && sys.Value(k) != nil {
			k++
		}
		return k
	}

	var reservoir []parked
	nextFresh := 0
	release := func(p parked) error {
		// Execute the parked write, then run the process to completion: it
		// observes the advanced phase and returns within a few steps.
		if _, err := sys.Step(p.pid); err != nil {
			return err
		}
		_, err := sys.Solo(p.pid)
		return err
	}

	for {
		phase := maxRnd()

		// Release every parked writer whose write belongs to an older
		// phase: each such write invalidates a current-phase register "for
		// free" (the charging scheme's B∪C writes).
		var keep []parked
		releasedAny := false
		for _, p := range reservoir {
			if p.rnd <= phase {
				if err := release(p); err != nil {
					return nil, err
				}
				releasedAny = true
			} else {
				keep = append(keep, p)
			}
		}
		reservoir = keep
		if releasedAny {
			continue
		}

		if nextFresh >= n {
			// No fresh processes left: flush the reservoir and finish.
			for _, p := range reservoir {
				if err := release(p); err != nil {
					return nil, err
				}
			}
			reservoir = nil
			break
		}

		// Run one fresh process until it is poised to write.
		pid := nextFresh
		nextFresh++
		poised, err := sys.RunUntil(pid, func(op sched.Op) bool { return op.Kind == sched.OpWrite })
		if err != nil {
			return nil, err
		}
		if !poised {
			continue // returned without writing (line 12/16 without line 15)
		}
		op, _, err := sys.Pending(pid)
		if err != nil {
			return nil, err
		}
		cell, ok := op.Val.(*sqrt.Cell)
		if !ok {
			return nil, fmt.Errorf("adversary: unexpected register value %T", op.Val)
		}
		if cell.Rnd > phase {
			// A line-15 write: starting phase cell.Rnd advances the
			// execution; let it through and complete the process.
			if _, err := sys.Step(pid); err != nil {
				return nil, err
			}
			if _, err := sys.Solo(pid); err != nil {
				return nil, err
			}
			continue
		}
		// An in-phase invalidation write (line 8 or 11): park it for a
		// later phase.
		reservoir = append(reservoir, parked{pid: pid, rnd: cell.Rnd})
	}

	// Drain any stragglers.
	if err := sys.Drain(); err != nil {
		return nil, err
	}
	for pid := 0; pid < n; pid++ {
		if err := sys.Err(pid); err != nil {
			return nil, fmt.Errorf("adversary: p%d: %w", pid, err)
		}
	}
	if err := hbcheck.Check(rec.Events()); err != nil {
		return nil, err
	}

	res.Phases = maxRnd()
	res.Steps = sys.Steps()
	for _, ev := range rec.Events() {
		res.Timestamps = append(res.Timestamps, ev.Val)
	}
	written := 0
	for i := 0; i < sys.M(); i++ {
		if sys.Value(i) != nil {
			written++
		}
	}
	res.Written = written
	res.Sequential = SequentialPhases(n)
	return res, nil
}

// SequentialPhases returns the number of phases a strictly sequential
// execution of n one-shot getTS calls reaches: the largest Φ with
// 1 + Φ(Φ−1)/2 ≤ n (phase k serves k getTS calls; see §6.1's sequential
// description).
func SequentialPhases(n int) int {
	phi := 0
	used := 0
	for {
		next := phi + 1
		cost := next // phase `next` serves `next` calls (starter + next−1 invalidators)
		if phi == 0 {
			cost = 1
		}
		if used+cost > n {
			// A partial phase still starts as soon as its line-15 write
			// happens (one call suffices to open it).
			if used < n {
				phi++
			}
			return phi
		}
		used += cost
		phi = next
	}
}

// MeasureSequential runs n one-shot getTS calls strictly sequentially on
// real memory and returns the number of phases (non-⊥ registers).
func MeasureSequential(n int) (int, error) {
	rep, err := engine.Run(engine.Config{
		Alg:      sqrt.New(n),
		World:    engine.Atomic,
		N:        n,
		Workload: engine.Sequential{},
	})
	if err != nil {
		return 0, err
	}
	return rep.Space.Written, nil
}
