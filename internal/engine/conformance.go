package engine

import (
	"errors"
	"fmt"

	"tsspace/internal/mc"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
)

// simCapable is an optional Algorithm capability: implementations whose
// getTS cannot be driven by the gated scheduler (no register operations to
// gate, or internal waiting the scheduler would deadlock on) report false.
type simCapable interface{ Simulable() bool }

// Simulable reports whether alg can run under the deterministic scheduler.
// Algorithms opt out by implementing Simulable() bool; everything written
// purely against register.Mem is simulable by construction.
func Simulable(alg timestamp.Algorithm) bool {
	if s, ok := alg.(simCapable); ok {
		return s.Simulable()
	}
	return true
}

// Counterexample is a failing schedule found by Exhaustive, Fuzz,
// CrashSweep or CrashFuzz, shrunk (when requested) to a 1-minimal
// execution that still violates the specification. Schedule is fully
// replayable: feeding a crash-free one to the Adversarial workload (or
// sched.System.Run), or a crash schedule to ReplayCrashSchedule,
// reproduces the violation deterministically.
type Counterexample struct {
	Alg      string
	Schedule []int
	Steps    int
	Trace    []sched.Op
	Err      error // the underlying property violation
}

// Error renders the counterexample.
func (c *Counterexample) Error() string {
	return fmt.Sprintf("engine: %s: %d-step counterexample %v: %v", c.Alg, c.Steps, c.Schedule, c.Err)
}

// Unwrap returns the property violation.
func (c *Counterexample) Unwrap() error { return c.Err }

// ExhaustiveOptions configures the Exhaustive run mode.
type ExhaustiveOptions struct {
	// MaxVisits caps visited executions (0 = all).
	MaxVisits int
	// POR enables the sleep-set + state-hashing reduction; off, the
	// exploration degenerates to a naive DFS (the baseline the reduction
	// is measured against).
	POR bool
	// Shrink minimizes any failing schedule before reporting it.
	Shrink bool
	// NewAlg, when non-nil, constructs a fresh algorithm instance for
	// every replayed execution. Required for algorithms keeping state
	// outside the registers (fas, the test mutants); stateless algorithms
	// may leave it nil and share cfg.Alg.
	NewAlg func() timestamp.Algorithm
}

// Exhaustive model-checks the configuration: it visits one representative
// of every equivalence class of maximal executions of the workload (every
// maximal execution with POR off) and verifies the happens-before
// specification over each whole class via mc.CausalCheck. On a violation
// it returns a *Counterexample (shrunk if requested) alongside the
// exploration stats.
func Exhaustive(cfg Config, opt ExhaustiveOptions) (mc.Stats, error) {
	h, err := newHarness(cfg, opt.NewAlg, false)
	if err != nil {
		return mc.Stats{}, err
	}
	var cur *simRun
	factory := func() *sched.System {
		cur = h.run()
		return cur.sys
	}
	mcOpt := mc.Options{
		MaxVisits: opt.MaxVisits,
		SleepSets: opt.POR,
		StateHash: opt.POR,
	}
	stats, err := mc.Explore(factory, mcOpt, func(*sched.System, []int) error {
		return cur.check(true)
	})
	var se *mc.ScheduleError
	if !errors.As(err, &se) {
		return stats, err
	}
	return stats, h.counterexample(se.Schedule, opt.Shrink)
}

// FuzzOptions configures the Fuzz run mode.
type FuzzOptions struct {
	// Count is the number of random schedules (or atomic-world runs for
	// non-simulable algorithms); values < 1 mean 1.
	Count int
	// Shrink minimizes any failing schedule before reporting it.
	Shrink bool
	// NewAlg constructs a fresh algorithm per schedule; see
	// ExhaustiveOptions.NewAlg.
	NewAlg func() timestamp.Algorithm
}

// FuzzReport summarizes a fuzzing run.
type FuzzReport struct {
	// World is Simulated, or Atomic for non-simulable algorithms.
	World World
	// Schedules is the number of executions checked, Steps the total
	// scheduler steps across them (simulated world only).
	Schedules, Steps int
}

// Fuzz stress-tests the configuration on Count random maximal
// interleavings drawn by sched.Sample from cfg.Seed, causally checking
// each and shrinking any failure to a *Counterexample. Non-simulable
// algorithms fall back to repeated atomic-world runs checked by the
// interval-order verifier.
func Fuzz(cfg Config, opt FuzzOptions) (FuzzReport, error) {
	count := opt.Count
	if count < 1 {
		count = 1
	}
	h, err := newHarness(cfg, opt.NewAlg, false)
	if errors.Is(err, ErrNeedsAtomic) {
		rep := FuzzReport{World: Atomic}
		for i := 0; i < count; i++ {
			c := h.config()
			c.World = Atomic
			r, err := Run(c)
			if err == nil {
				err = r.Verify(cfg.Alg.Compare)
			}
			if err != nil {
				return rep, fmt.Errorf("engine: %s atomic fuzz run %d: %w", cfg.Alg.Name(), i, err)
			}
			rep.Schedules++
		}
		return rep, nil
	}
	if err != nil {
		return FuzzReport{}, err
	}

	rep := FuzzReport{World: Simulated}
	var (
		cur     *simRun
		failed  bool
		failing []int
	)
	factory := func() *sched.System {
		cur = h.run()
		return cur.sys
	}
	err = sched.Sample(factory, count, cfg.Seed, func(sys *sched.System, schedule []int) error {
		rep.Steps += sys.Steps()
		if err := cur.check(true); err != nil {
			failed, failing = true, schedule
			return err
		}
		rep.Schedules++
		return nil
	})
	if failed {
		return rep, h.counterexample(failing, opt.Shrink)
	}
	return rep, err
}

// ConformanceSpec describes one algorithm family's sweep through the
// conformance matrix: exhaustive small-N exploration plus seeded large-N
// fuzzing.
type ConformanceSpec struct {
	// New constructs the implementation for n processes.
	New func(n int) timestamp.Algorithm
	// ExhaustiveNs lists the process counts explored exhaustively.
	ExhaustiveNs []int
	// Calls is the per-process call count for long-lived algorithms
	// (one-shot algorithms are forced to 1); values < 1 mean 1.
	Calls int
	// MaxVisits caps each exploration (0 = unlimited).
	MaxVisits int
	// FuzzN and FuzzCount shape the fuzzing leg (skipped if either ≤ 0).
	FuzzN, FuzzCount int
	// Seed feeds the fuzzing schedules.
	Seed int64
	// POR and Shrink are passed through to the run modes.
	POR, Shrink bool
}

// ConformanceResult is one row of the conformance matrix.
type ConformanceResult struct {
	Alg   string
	Mode  string // "exhaustive" or "fuzz"
	World World
	N     int
	Calls int
	// Stats is populated for exhaustive rows, Schedules for fuzz rows.
	Stats     mc.Stats
	Schedules int
	// Skipped carries the reason a leg did not run (e.g. not simulable).
	Skipped string
	Err     error
}

// Conformance runs the spec's full matrix and returns one result per leg.
// It never aborts early: a failing leg records its error (typically a
// *Counterexample) and the sweep continues, so callers always see the
// whole table.
func Conformance(spec ConformanceSpec) []ConformanceResult {
	var out []ConformanceResult
	calls := spec.Calls
	if calls < 1 {
		calls = 1
	}
	workload := func(alg timestamp.Algorithm) (Workload, int) {
		if alg.OneShot() || calls == 1 {
			return OneShot{}, 1
		}
		return LongLived{CallsPerProc: calls}, calls
	}
	for _, n := range spec.ExhaustiveNs {
		alg := spec.New(n)
		wl, c := workload(alg)
		res := ConformanceResult{Alg: alg.Name(), Mode: "exhaustive", World: Simulated, N: n, Calls: c}
		cfg := Config{Alg: alg, World: Simulated, N: n, Workload: wl, Seed: spec.Seed}
		if !Simulable(alg) {
			// The gated scheduler cannot drive this algorithm; substitute
			// an atomic-world stress leg so the row is still exercised.
			res.World = Atomic
			res.Skipped = "not simulable; ran atomic stress instead"
			count := spec.FuzzCount
			if count < 1 {
				count = 10
			}
			rep, err := Fuzz(cfg, FuzzOptions{
				Count:  count,
				NewAlg: func() timestamp.Algorithm { return spec.New(n) },
			})
			res.Schedules, res.Err = rep.Schedules, err
			out = append(out, res)
			continue
		}
		stats, err := Exhaustive(cfg, ExhaustiveOptions{
			MaxVisits: spec.MaxVisits,
			POR:       spec.POR,
			Shrink:    spec.Shrink,
			NewAlg:    func() timestamp.Algorithm { return spec.New(n) },
		})
		res.Stats, res.Err = stats, err
		out = append(out, res)
	}
	if spec.FuzzN > 0 && spec.FuzzCount > 0 {
		alg := spec.New(spec.FuzzN)
		wl, c := workload(alg)
		res := ConformanceResult{Alg: alg.Name(), Mode: "fuzz", World: Simulated, N: spec.FuzzN, Calls: c}
		if !Simulable(alg) {
			res.World = Atomic
		}
		rep, err := Fuzz(Config{Alg: alg, World: Simulated, N: spec.FuzzN, Workload: wl, Seed: spec.Seed}, FuzzOptions{
			Count:  spec.FuzzCount,
			Shrink: spec.Shrink,
			NewAlg: func() timestamp.Algorithm { return spec.New(spec.FuzzN) },
		})
		res.World, res.Schedules, res.Err = rep.World, rep.Schedules, err
		out = append(out, res)
	}
	return out
}
