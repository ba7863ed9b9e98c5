package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"tsspace/internal/hbcheck"
	"tsspace/internal/mc"
	"tsspace/internal/register"
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

// callSpans records, per completed getTS call, the per-process ordinals of
// its first and last register operation — the bridge between the
// recorder's events and the scheduler's trace that mc.CausalCheck needs.
type callSpans struct {
	mu sync.Mutex
	m  map[[2]int][2]int
}

func newCallSpans() *callSpans {
	return &callSpans{m: make(map[[2]int][2]int)}
}

func (s *callSpans) set(pid, seq, first, last int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[[2]int{pid, seq}] = [2]int{first, last}
}

func (s *callSpans) get(pid, seq int) (first, last int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.m[[2]int{pid, seq}]
	if !ok {
		return -1, -1
	}
	return sp[0], sp[1]
}

// calls joins recorded events with their operation spans.
func callsFromEvents(events []hbcheck.Event[timestamp.Timestamp], spans *callSpans) []mc.Call[timestamp.Timestamp] {
	out := make([]mc.Call[timestamp.Timestamp], 0, len(events))
	for _, ev := range events {
		first, last := spans.get(ev.Pid, ev.Seq)
		out = append(out, mc.Call[timestamp.Timestamp]{Pid: ev.Pid, Seq: ev.Seq, First: first, Last: last, Val: ev.Val})
	}
	return out
}

// opCounter counts the operations granted to one process. Not safe for
// concurrent use — by construction only that process's body touches it.
type opCounter struct {
	ops int
}

// counted is the per-process counting middleware behind call-span
// tracking.
func counted(c *opCounter) register.Middleware {
	return func(inner register.Mem) register.Mem {
		return &countedMem{inner: inner, c: c}
	}
}

type countedMem struct {
	inner register.Mem
	c     *opCounter
}

func (m *countedMem) Size() int { return m.inner.Size() }

func (m *countedMem) Read(i int) register.Value {
	v := m.inner.Read(i) // blocks until the scheduler grants the read
	m.c.ops++
	return v
}

func (m *countedMem) Write(i int, v register.Value) {
	m.inner.Write(i, v)
	m.c.ops++
}

// MaxInt64 collects with m Reads, so each read is counted as it is
// granted.
func (m *countedMem) MaxInt64(n int) int64 { return register.CollectMax(m, n) }

func (m *countedMem) WriteInt64(i int, v int64) {
	m.inner.WriteInt64(i, v)
	m.c.ops++
}

// newSimSystemSpans is NewSimSystem plus call-span tracking: each process's
// operations are counted through the counting layer so that every
// completed call knows which slice of its process's operation sequence it
// occupied. NewSimSystem delegates here and drops the spans.
func newSimSystemSpans(cfg Config) (*sched.System, *hbcheck.Recorder[timestamp.Timestamp], *register.Meter, *callSpans) {
	wl := cfg.Workload
	if wl == nil {
		wl = OneShot{}
	}
	m := cfg.Alg.Registers()
	meter := register.NewMeterSize(m)
	table := cfg.Alg.WriterTable()
	metered := register.Metered(meter)
	if cfg.Unmetered {
		metered = nil
	}
	rec := &hbcheck.Recorder[timestamp.Timestamp]{}
	spans := newCallSpans()
	sys := sched.New(cfg.N, m, func(pid int, mem register.Mem) (any, error) {
		// The op counter sits directly above the scheduler's memory so
		// its counts line up one-to-one with the operations the scheduler
		// attributes to this process. A plain int suffices: each process
		// body is single-threaded, and the counter is read only between
		// the process's own calls.
		counter := &opCounter{}
		mem = register.Wrap(mem,
			counted(counter),
			metered,
			register.DisciplineFor(table, pid),
		)
		calls := wl.Calls(pid, cfg.N)
		out := make([]timestamp.Timestamp, 0, calls)
		for k := 0; k < calls; k++ {
			first := counter.ops
			sm, stamp := register.StampFirstOp(mem, rec.Begin)
			ts, err := cfg.Alg.GetTS(sm, pid, k)
			if err != nil {
				return out, fmt.Errorf("p%d getTS#%d: %w", pid, k, err)
			}
			rec.End(pid, k, stamp.Stamp(), ts)
			last := counter.ops - 1
			if last < first {
				first, last = -1, -1 // operation-free call
			}
			spans.set(pid, k, first, last)
			if cfg.OnCall != nil {
				cfg.OnCall(pid, k, ts)
			}
			out = append(out, ts)
		}
		return out, nil
	})
	return sys, rec, meter, spans
}

// Counterexample is a failing schedule found by Exhaustive or Fuzz,
// shrunk (when requested) to a 1-minimal complete execution that still
// violates the specification. Schedule is fully replayable: feeding it to
// the Adversarial workload (or sched.System.Run) reproduces the violation
// deterministically.
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
	// MaxVisits caps visited executions (0 = all); MaxSteps guards against
	// runaway schedules (0 = default).
	MaxVisits, MaxSteps int
	// POR enables the sleep-set + state-hashing reduction; off, the
	// exploration degenerates to a naive DFS (the baseline the reduction
	// is measured against).
	POR bool
	// Shrink minimizes any failing schedule before reporting it.
	Shrink bool
	// Footprint optionally feeds static access knowledge to the
	// persistent-set computation (see mc.Footprint).
	Footprint mc.Footprint
	// NewAlg, when non-nil, constructs a fresh algorithm instance for
	// every replayed execution. Required for algorithms keeping state
	// outside the registers (fas, the test mutants); stateless algorithms
	// may leave it nil and share cfg.Alg.
	NewAlg func() timestamp.Algorithm
}

// Exhaustive model-checks the configuration with partial-order reduction:
// it visits one representative of every equivalence class of maximal
// executions of the workload and verifies the happens-before specification
// over each whole class via mc.CausalCheck. On a violation it returns a
// *Counterexample (shrunk if requested) alongside the exploration stats.
func Exhaustive(cfg Config, opt ExhaustiveOptions) (mc.Stats, error) {
	if _, _, err := cfg.prepare(); err != nil {
		return mc.Stats{}, err
	}
	if !Simulable(cfg.Alg) {
		return mc.Stats{}, fmt.Errorf("%w: %s cannot run under the deterministic scheduler", ErrNeedsAtomic, cfg.Alg.Name())
	}
	mk := func() Config {
		c := cfg
		if opt.NewAlg != nil {
			c.Alg = opt.NewAlg()
		}
		return c
	}
	var cur struct {
		rec   *hbcheck.Recorder[timestamp.Timestamp]
		spans *callSpans
	}
	factory := func() *sched.System {
		sys, rec, _, spans := newSimSystemSpans(mk())
		cur.rec, cur.spans = rec, spans
		return sys
	}
	mcOpt := mc.Options{
		MaxVisits: opt.MaxVisits,
		MaxSteps:  opt.MaxSteps,
		SleepSets: opt.POR,
		StateHash: opt.POR,
		Footprint: opt.Footprint,
	}
	stats, err := mc.Explore(factory, mcOpt, func(sys *sched.System, schedule []int) error {
		return checkVisit(sys, cur.rec, cur.spans, cfg.Alg.Compare)
	})
	if err == nil {
		return stats, nil
	}
	var se *mc.ScheduleError
	if !errors.As(err, &se) {
		return stats, err
	}
	return stats, counterexample(cfg.Alg.Name(), mk, se.Schedule, cfg.N, opt.Shrink, cfg.Alg.Compare)
}

// checkVisit surfaces process errors and causally checks one visited
// execution.
func checkVisit(sys *sched.System, rec *hbcheck.Recorder[timestamp.Timestamp], spans *callSpans, compare func(a, b timestamp.Timestamp) bool) error {
	for pid := 0; pid < sys.N(); pid++ {
		if err := sys.Err(pid); err != nil {
			return err
		}
	}
	return mc.CausalCheck(sys.N(), sys.Trace(), callsFromEvents(rec.Events(), spans), compare)
}

// replaySchedule runs a candidate schedule leniently on a fresh system —
// out-of-range and terminated entries are skipped — and returns the
// executed schedule, its trace, and the causal-check outcome over the
// calls completed so far. The execution is deliberately NOT driven to
// completion: a prefix is a legal execution, and leaving irrelevant
// processes unfinished is what lets the shrinker cut a counterexample down
// to just the operations of the offending calls.
func replaySchedule(mk func() Config, schedule []int, compare func(a, b timestamp.Timestamp) bool) (full []int, trace []sched.Op, err error) {
	sys, rec, _, spans := newSimSystemSpans(mk())
	defer sys.Close()
	for _, pid := range schedule {
		if pid < 0 || pid >= sys.N() {
			continue
		}
		if _, alive, err := sys.Pending(pid); err != nil {
			return nil, nil, err
		} else if !alive {
			continue
		}
		if _, err := sys.Step(pid); err != nil {
			return nil, nil, err
		}
	}
	trace = sys.Trace()
	full = make([]int, len(trace))
	for i, op := range trace {
		full[i] = op.Pid
	}
	return full, trace, checkVisit(sys, rec, spans, compare)
}

// counterexample replays (and optionally shrinks) a failing schedule into
// a *Counterexample.
func counterexample(alg string, mk func() Config, schedule []int, n int, shrink bool, compare func(a, b timestamp.Timestamp) bool) error {
	isViolation := func(err error) bool {
		var v mc.Violation[timestamp.Timestamp]
		return errors.As(err, &v)
	}
	if shrink {
		schedule = mc.Shrink(schedule, func(cand []int) bool {
			_, _, err := replaySchedule(mk, cand, compare)
			return err != nil && isViolation(err)
		})
	}
	full, trace, err := replaySchedule(mk, schedule, compare)
	if err == nil {
		// Shrinking is pure replay, so this cannot happen unless the
		// algorithm is nondeterministic; surface that instead of hiding it.
		return fmt.Errorf("engine: %s: failing schedule %v no longer fails on replay", alg, schedule)
	}
	// A causal violation may be realizable only in a reordering of the
	// replayed interleaving. Serialize the witness so the reported
	// schedule exhibits the violating pair back to back — directly visible
	// to the plain interval-order checker on replay.
	var v mc.Violation[timestamp.Timestamp]
	if errors.As(err, &v) {
		if ws := mc.WitnessSchedule(n, trace, v); ws != nil {
			if wsFull, wsTrace, wsErr := replaySchedule(mk, ws, compare); wsErr != nil && isViolation(wsErr) {
				full, trace, err = wsFull, wsTrace, wsErr
			}
		}
	}
	return &Counterexample{Alg: alg, Schedule: full, Steps: len(full), Trace: trace, Err: err}
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

// Fuzz stress-tests the configuration on Count seeded random maximal
// interleavings (from cfg.Seed), causally checking each and shrinking any
// failure to a *Counterexample. Non-simulable algorithms fall back to
// repeated atomic-world runs checked by the interval-order verifier.
func Fuzz(cfg Config, opt FuzzOptions) (FuzzReport, error) {
	if _, _, err := cfg.prepare(); err != nil {
		return FuzzReport{}, err
	}
	count := opt.Count
	if count < 1 {
		count = 1
	}
	mk := func() Config {
		c := cfg
		if opt.NewAlg != nil {
			c.Alg = opt.NewAlg()
		}
		return c
	}
	if !Simulable(cfg.Alg) {
		rep := FuzzReport{World: Atomic}
		for i := 0; i < count; i++ {
			c := mk()
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

	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := FuzzReport{World: Simulated}
	for i := 0; i < count; i++ {
		sys, rec, _, spans := newSimSystemSpans(mk())
		schedule, err := randomMaximal(sys, rng)
		if err == nil {
			err = checkVisit(sys, rec, spans, cfg.Alg.Compare)
		}
		rep.Steps += sys.Steps()
		sys.Close()
		if err != nil {
			return rep, counterexample(cfg.Alg.Name(), mk, schedule, cfg.N, opt.Shrink, cfg.Alg.Compare)
		}
		rep.Schedules++
	}
	return rep, nil
}

// randomMaximal drives sys to completion with uniformly random scheduling,
// returning the schedule taken.
func randomMaximal(sys *sched.System, rng *rand.Rand) ([]int, error) {
	var schedule []int
	live := make([]int, 0, sys.N())
	for {
		live = live[:0]
		for pid := 0; pid < sys.N(); pid++ {
			if _, alive, err := sys.Pending(pid); err != nil {
				return schedule, err
			} else if alive {
				live = append(live, pid)
			}
		}
		if len(live) == 0 {
			return schedule, nil
		}
		pid := live[rng.Intn(len(live))]
		if _, err := sys.Step(pid); err != nil {
			return schedule, err
		}
		schedule = append(schedule, pid)
	}
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
