package adversary

import (
	"fmt"

	"tsspace/internal/engine"
	"tsspace/internal/hbcheck"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp/sqrt"
)

// DoubleCross exercises the §6.1 line-15 race: when two getTS instances
// both scan at the end of a phase and both prepare to install R[k], the
// adversary lets the fresher view write first and the staler view write
// second, and parks every in-phase invalidation it can.
//
// Measured effect: this schedule *minimizes* space rather than maximizing
// it. Racing line-15 writers all return the duplicate timestamp (k, 0) —
// legal, because the racing calls are mutually concurrent — and parked
// invalidators never advance the phase, so arbitrarily many calls are
// served by a constant number of registers (the floor of the algorithm's
// schedule-dependent space range; the trivial extreme parks all n calls at
// their initial R[1] install and serves everyone with one register).
//
// Together with StaleRelease (which tracks the sequential √(2M) growth,
// our empirical worst case) and the analytic ⌈2√M⌉ ceiling of Lemma 6.5,
// this brackets the space behaviour of Algorithm 4 under adversarial
// scheduling; see EXPERIMENTS.md (E3).
func DoubleCross(n int) (*Result, error) {
	alg := sqrt.New(n)
	sys, rec, _ := engine.NewSimSystem(engine.Config{
		Alg:      alg,
		World:    engine.Simulated,
		N:        n,
		Workload: engine.OneShot{},
	})
	defer sys.Close()

	res := &Result{M: n, Registers: alg.Registers()}
	nonBottom := func() int {
		k := 0
		for k < sys.M() && sys.Value(k) != nil {
			k++
		}
		return k
	}

	// scanner is a parked line-15 writer (stale view) per target register.
	type scannerT struct {
		pid int
		reg int
	}
	var scanner *scannerT
	var reservoir []parked
	nextFresh := 0

	finish := func(pid int) error {
		if _, err := sys.Step(pid); err != nil {
			return err
		}
		_, err := sys.Solo(pid)
		return err
	}

	for {
		phase := nonBottom()

		// Release stale invalidation writes from strictly older phases:
		// they burn the current phase's timestamps.
		var keep []parked
		released := false
		for _, p := range reservoir {
			if p.rnd < phase {
				if err := finish(p.pid); err != nil {
					return nil, err
				}
				released = true
			} else {
				keep = append(keep, p)
			}
		}
		reservoir = keep
		if released {
			continue
		}

		// If the parked scanner's target register has been written by
		// someone else, release it now: its stale view overwrites the
		// fresher baseline, re-invalidating the registers touched since its
		// scan.
		if scanner != nil && sys.Value(scanner.reg) != nil {
			pid := scanner.pid
			scanner = nil
			if err := finish(pid); err != nil {
				return nil, err
			}
			continue
		}

		if nextFresh >= n {
			// Flush: parked scanner first (it may open the final phase),
			// then the reservoir.
			if scanner != nil {
				if err := finish(scanner.pid); err != nil {
					return nil, err
				}
				scanner = nil
				continue
			}
			for _, p := range reservoir {
				if err := finish(p.pid); err != nil {
					return nil, err
				}
			}
			reservoir = nil
			break
		}

		pid := nextFresh
		nextFresh++
		poised, err := sys.RunUntil(pid, func(op sched.Op) bool { return op.Kind == sched.OpWrite })
		if err != nil {
			return nil, err
		}
		if !poised {
			continue
		}
		op, _, err := sys.Pending(pid)
		if err != nil {
			return nil, err
		}
		cell, ok := op.Val.(*sqrt.Cell)
		if !ok {
			return nil, fmt.Errorf("adversary: unexpected register value %T", op.Val)
		}
		switch {
		case cell.Rnd > phase && scanner == nil:
			// First line-15 writer for the next phase: park it as the
			// stale-view scanner. Phase phase+1 has now started (its scan
			// is done) but stays invisible.
			scanner = &scannerT{pid: pid, reg: op.Reg}
		case cell.Rnd > phase:
			// Second line-15 writer for the same phase: let it write (the
			// fresh view), run it out, and the parked scanner will
			// double-cross it on the next iteration.
			if err := finish(pid); err != nil {
				return nil, err
			}
		default:
			// In-phase invalidation write: park it for a later phase.
			reservoir = append(reservoir, parked{pid: pid, rnd: cell.Rnd})
		}
	}

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

	res.Phases = nonBottom()
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
