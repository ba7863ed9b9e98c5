// Package engine runs any Algorithm × World × Workload combination through
// a single code path.
//
// Before it existed, every consumer of the reproduction — the runner, the
// benchmarks, the three CLIs, the examples — wired up memory, writer
// discipline, recording and verification by hand. The engine owns that
// plumbing once: it assembles the register middleware stack
// (register.Wrap), drives the chosen workload in the chosen world, and
// returns one Report carrying the happens-before events and the space
// footprint (operation totals and the written set).
// Adding a new scenario is a ~20-line Workload implementation, not a new
// main().
//
// Every simulated execution is built by one run builder (newSimRun): the
// n paper processes over the full middleware stack, plus n parked
// recovery incarnations on a crash run. The checks share it: Exhaustive
// (mc.Explore; with POR off it is the naive DFS), Fuzz (sched.Sample),
// CrashSweep, CrashFuzz and ReplayCrashSchedule, with one lenient replay
// step, one replay-and-shrink path to a *Counterexample, and one
// violation predicate. Count (mc.Count) sizes the naive DFS from the same
// executions without running it, and NewSimSystem hands the same
// crash-free execution to callers that drive it themselves.
//
// The engine runs timestamp.Algorithm implementations and their
// timestamp.Timestamp values; the model-checking layers below it
// (internal/hbcheck, internal/mc) stay generic over the value type.
package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"tsspace/internal/hbcheck"
	"tsspace/internal/register"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
)

// World selects the execution substrate.
type World int

const (
	// Atomic runs real goroutines on hardware atomics: wait-freedom
	// validation and throughput.
	Atomic World = iota
	// Simulated runs under the deterministic step scheduler: adversarial
	// schedules, replay, model checking.
	Simulated
)

// String returns "atomic" or "simulated"; values outside the enum render
// as "World(n)" instead of silently claiming to be simulated.
func (w World) String() string {
	switch w {
	case Atomic:
		return "atomic"
	case Simulated:
		return "simulated"
	default:
		return fmt.Sprintf("World(%d)", int(w))
	}
}

// ParseWorld is the inverse of String for flag parsing: it accepts
// "atomic" or "simulated".
func ParseWorld(s string) (World, error) {
	switch s {
	case "atomic":
		return Atomic, nil
	case "simulated":
		return Simulated, nil
	default:
		return 0, fmt.Errorf("engine: unknown world %q (want atomic or simulated)", s)
	}
}

// Errors reported by the engine.
var (
	// ErrOneShot is returned when a workload repeats calls on a one-shot
	// algorithm.
	ErrOneShot = errors.New("engine: workload repeats getTS on a one-shot algorithm")
	// ErrNeedsSim is returned by workloads that only make sense under the
	// deterministic scheduler (explicit schedules).
	ErrNeedsSim = errors.New("engine: workload requires the simulated world")
	// ErrNeedsAtomic is returned by workload shapes the scheduler cannot
	// express (interleaving calls of one process's program).
	ErrNeedsAtomic = errors.New("engine: workload requires the atomic world")
)

// Config describes one run.
type Config struct {
	// Alg is the implementation under test.
	Alg timestamp.Algorithm
	// World selects the substrate; the zero value is Atomic.
	World World
	// N is the number of processes.
	N int
	// Workload shapes the run; nil defaults to OneShot{}.
	Workload Workload
	// Seed drives the simulated world's random scheduling decisions.
	Seed int64
	// Unmetered drops the metering layer from the stack: no shared-counter
	// traffic on the operation path, for throughput measurement. The
	// report's Space then only carries the register count.
	Unmetered bool
	// OnCall, when non-nil, observes every completed getTS. In the atomic
	// world it is called concurrently from worker goroutines; in the
	// simulated world calls are serialized.
	OnCall func(pid, seq int, ts timestamp.Timestamp)
}

// Report is the outcome of a run: the single result shape every consumer
// (internal/report, the CLIs, the benchmarks) reads.
type Report struct {
	Alg      string
	World    World
	Workload string
	N        int
	// MaxCalls is the largest per-process call count of the workload.
	MaxCalls int
	// Space is the register footprint: registers allocated and written,
	// and the operation totals.
	Space register.Totals
	// Events are the completed getTS intervals in start order.
	Events []hbcheck.Event
	// Steps and Trace are the scheduler step count and executed operations
	// (simulated world only).
	Steps int
	Trace []sched.Op
}

// Verify checks the happens-before property over the report's events.
func (r *Report) Verify() error {
	return hbcheck.Check(r.Events)
}

// Run executes the configured Algorithm × World × Workload combination and
// returns its report.
func Run(cfg Config) (*Report, error) {
	wl, maxCalls, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	if cfg.World == Simulated {
		return runSim(cfg, wl, maxCalls)
	}
	return runAtomic(cfg, wl, maxCalls)
}

// prepare validates the config and resolves the workload.
func (cfg *Config) prepare() (Workload, int, error) {
	if cfg.Alg == nil {
		return nil, 0, errors.New("engine: no algorithm")
	}
	if cfg.N <= 0 {
		return nil, 0, fmt.Errorf("engine: invalid process count %d", cfg.N)
	}
	wl := cfg.Workload
	if wl == nil {
		wl = OneShot{}
	}
	maxCalls := 0
	for pid := 0; pid < cfg.N; pid++ {
		if c := wl.Calls(pid, cfg.N); c > maxCalls {
			maxCalls = c
		}
	}
	if cfg.Alg.OneShot() && maxCalls > 1 {
		return nil, 0, fmt.Errorf("%w: %s, calls=%d", ErrOneShot, cfg.Alg.Name(), maxCalls)
	}
	return wl, maxCalls, nil
}

// stackMeter is the meter the process stacks count into: meter, or nil
// on an unmetered run, whose report then carries meter's register count
// alone.
func (cfg *Config) stackMeter(meter *register.Meter) *register.Meter {
	if cfg.Unmetered {
		return nil
	}
	return meter
}

func (cfg *Config) report(wl Workload, maxCalls int) *Report {
	return &Report{
		Alg:      cfg.Alg.Name(),
		World:    cfg.World,
		Workload: wl.Kind(),
		N:        cfg.N,
		MaxCalls: maxCalls,
	}
}

// runAtomic drives the workload on real goroutines over the algorithm's
// atomic register array (timestamp.NewMem).
func runAtomic(cfg Config, wl Workload, maxCalls int) (*Report, error) {
	base := timestamp.NewMem(cfg.Alg)
	meter := register.NewMeterSize(base.Size())

	// The stack is fixed per process for the whole run; build it outside
	// the call path so the hot loop only pays for the layers themselves.
	mems := make([]register.Mem, cfg.N)
	for pid := range mems {
		mems[pid] = register.Stack(base, cfg.stackMeter(meter), cfg.Alg.WriterTable(), pid)
	}

	var (
		rec      hbcheck.Recorder
		mu       sync.Mutex
		firstErr error
	)
	issue := func(pid, seq int) error {
		mem := mems[pid]
		start := rec.Begin()
		ts, err := cfg.Alg.GetTS(mem, pid, seq)
		if err != nil {
			err = fmt.Errorf("p%d getTS#%d: %w", pid, seq, err)
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return err
		}
		rec.End(pid, seq, start, ts)
		if cfg.OnCall != nil {
			cfg.OnCall(pid, seq, ts)
		}
		return nil
	}

	if err := wl.DriveAtomic(cfg.N, issue); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}

	rep := cfg.report(wl, maxCalls)
	rep.Space = meter.Totals()
	rep.Events = rec.Events()
	return rep, nil
}

// runSim drives the workload through the deterministic scheduler.
func runSim(cfg Config, wl Workload, maxCalls int) (*Report, error) {
	sys, rec, meter := NewSimSystem(cfg)
	defer sys.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	if err := wl.DriveSim(sys, rng); err != nil {
		return nil, err
	}
	for pid := 0; pid < sys.N(); pid++ {
		if err := sys.Err(pid); err != nil {
			return nil, err
		}
	}

	rep := cfg.report(wl, maxCalls)
	rep.Space = meter.Totals()
	rep.Events = rec.Events()
	rep.Steps = sys.Steps()
	rep.Trace = sys.Trace()
	return rep, nil
}

// SequentialTimestamps runs n×calls getTS() strictly sequentially on real
// memory — p0's calls, then p1's, … when byProcess; round-robin by call
// index otherwise — and returns the timestamps in issue order. Every
// consecutive pair is happens-before ordered, so the sequence must be
// strictly increasing under the algorithm's compare: the no-concurrency
// baseline the scenario tests and space experiments start from.
func SequentialTimestamps(alg timestamp.Algorithm, n, calls int, byProcess bool) ([]timestamp.Timestamp, error) {
	if calls < 1 {
		return nil, nil
	}
	out := make([]timestamp.Timestamp, 0, n*calls)
	_, err := Run(Config{
		Alg:      alg,
		World:    Atomic,
		N:        n,
		Workload: Sequential{CallsPerProc: calls, RoundRobin: !byProcess},
		OnCall:   func(pid, seq int, ts timestamp.Timestamp) { out = append(out, ts) },
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NewSimSystem builds a deterministic-scheduler system whose processes run
// the per-process call loops of cfg's workload over the full middleware
// stack (shared meter, per-process discipline, per-call first-op
// stamping): the crash-free execution every simulated check in this
// package builds, without its replay and check bookkeeping. Process
// results are []timestamp.Timestamp. Callers drive the returned system
// themselves — runSim, the adversaries in internal/adversary, and the
// scripted scenarios all start here. Unlike Run, it applies none of the
// config validation (no one-shot guard): scripted scenarios deliberately
// drive partial and over-budget call patterns to observe how the
// algorithms fail.
func NewSimSystem(cfg Config) (*sched.System, *hbcheck.Recorder, *register.Meter) {
	r := newSimRun(cfg, false)
	return r.sys, r.rec, r.meter
}
