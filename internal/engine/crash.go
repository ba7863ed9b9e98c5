package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"tsspace/internal/hbcheck"
	"tsspace/internal/mc"
	"tsspace/internal/register"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
)

// Crash-recovery fault injection: the crash workload of the simulated
// world. A run is built over 2n scheduler processes — n primaries plus n
// lazy recovery incarnations, one per paper process. A crash-schedule
// entry (see sched.CrashDrop / sched.CrashApply) halts a primary at its
// gate, its pending write either applied (the torn write that landed) or
// dropped, and releases the recovery incarnation of the same paper pid:
// the crashed pid re-leased into the system, resuming the interrupted call
// with the same (pid, seq) identity against whatever the registers hold.
//
// Verification is the conformance machinery plus two crash-specific
// pieces: a causal barrier per crash (the recovery's operations cannot be
// reordered before the predecessor's last executed operation — a real
// causal edge no register conflict expresses) and the plain interval-order
// check over the recorder, which also constrains operation-free retries
// that the causal checker exempts.

// crashRun is one crash-capable simulated execution and its bookkeeping.
type crashRun struct {
	cfg      Config
	wl       Workload
	sys      *sched.System
	rec      *hbcheck.Recorder[timestamp.Timestamp]
	spans    *callSpans
	progress []atomic.Int32 // completed calls per paper pid
	barriers []mc.Barrier
	entries  []int // executed crash-schedule entries
}

// newCrashRun builds the 2n-incarnation system. Scheduler pids 0..n-1 are
// the primaries; scheduler pid n+p is the parked recovery incarnation of
// paper process p, released if and when p crashes. Recorder events and
// call spans are keyed by scheduler pid so the causal analysis lines up
// with the trace; the algorithm itself always sees the paper pid.
func newCrashRun(cfg Config) *crashRun {
	wl := cfg.Workload
	if wl == nil {
		wl = OneShot{}
	}
	n := cfg.N
	m := cfg.Alg.Registers()
	table := cfg.Alg.WriterTable()
	r := &crashRun{
		cfg:      cfg,
		wl:       wl,
		rec:      &hbcheck.Recorder[timestamp.Timestamp]{},
		spans:    newCallSpans(),
		progress: make([]atomic.Int32, n),
	}
	r.sys = sched.NewLazy(2*n, m, n, func(spid int, mem register.Mem) (any, error) {
		paper := spid % n
		counter := &opCounter{}
		mem = register.Wrap(mem,
			counted(counter),
			register.DisciplineFor(table, paper),
		)
		calls := wl.Calls(paper, n)
		out := make([]timestamp.Timestamp, 0, calls)
		// A recovery incarnation resumes where its predecessor crashed:
		// completed calls stay completed, the interrupted call is retried
		// with its original seq. The progress slot is written by the
		// predecessor's goroutine and read after Release, which happens
		// after Crash observed the predecessor unwind — channel-ordered.
		for k := int(r.progress[paper].Load()); k < calls; k++ {
			first := counter.ops
			sm, stamp := register.StampFirstOp(mem, r.rec.Begin)
			ts, err := cfg.Alg.GetTS(sm, paper, k)
			if err != nil {
				return out, fmt.Errorf("p%d getTS#%d: %w", paper, k, err)
			}
			r.rec.End(spid, k, stamp.Stamp(), ts)
			last := counter.ops - 1
			if last < first {
				first, last = -1, -1 // operation-free call
			}
			r.spans.set(spid, k, first, last)
			r.progress[paper].Store(int32(k + 1))
			if cfg.OnCall != nil {
				cfg.OnCall(paper, k, ts)
			}
			out = append(out, ts)
		}
		return out, nil
	})
	return r
}

// lastOpIndex returns the global trace index of pid's last executed
// operation, or -1 if it executed none.
func lastOpIndex(trace []sched.Op, pid int) int {
	for i := len(trace) - 1; i >= 0; i-- {
		if trace[i].Pid == pid {
			return i
		}
	}
	return -1
}

// apply executes one crash-schedule entry leniently: entries naming
// parked, terminated, out-of-range or already-crashed processes are
// skipped (ddmin deletes entries freely; whatever remains must still
// replay). Executed entries accumulate in r.entries.
func (r *crashRun) apply(entry int) error {
	pid, applyWrite, isCrash := sched.DecodeCrash(entry)
	if isCrash {
		if pid < 0 || pid >= r.cfg.N || r.sys.Crashed(pid) {
			return nil
		}
		if _, alive, err := r.sys.Pending(pid); err != nil {
			return err
		} else if !alive {
			return nil
		}
		if _, _, err := r.sys.Crash(pid, applyWrite); err != nil {
			return err
		}
		recovery := r.cfg.N + pid
		barrier := mc.Barrier{Before: lastOpIndex(r.sys.Trace(), pid), After: recovery}
		if err := r.sys.Release(recovery); err != nil {
			return err
		}
		// Synchronize with the released incarnation: wait until it is
		// poised at its first operation or has terminated. This pins the
		// recovery's bookkeeping (notably an operation-free retry's
		// recorder event) to this point of the execution, keeping crash
		// replays deterministic.
		if _, _, err := r.sys.Pending(recovery); err != nil {
			return err
		}
		r.barriers = append(r.barriers, barrier)
		r.entries = append(r.entries, entry)
		return nil
	}
	if pid >= r.sys.N() {
		return nil
	}
	if _, alive, err := r.sys.Pending(pid); err != nil {
		return err
	} else if !alive {
		return nil
	}
	if _, err := r.sys.Step(pid); err != nil {
		return err
	}
	r.entries = append(r.entries, pid)
	return nil
}

// drain runs every live process to completion round-robin, recording the
// steps taken as entries.
func (r *crashRun) drain() error {
	for {
		progressed := false
		for spid := 0; spid < r.sys.N(); spid++ {
			if _, alive, err := r.sys.Pending(spid); err != nil {
				return err
			} else if !alive {
				continue
			}
			if _, err := r.sys.Step(spid); err != nil {
				return err
			}
			r.entries = append(r.entries, spid)
			progressed = true
		}
		if !progressed {
			return nil
		}
	}
}

// check verifies the execution: process errors (ErrCrashed is the point,
// not a failure), the interval-order property on the visited interleaving,
// and the causal check over the whole equivalence class with the crash
// barriers. When the execution is complete it additionally asserts no pid
// lease was lost: every crashed process's recovery finished the paper
// process's full call budget.
func (r *crashRun) check(complete bool) error {
	for spid := 0; spid < r.sys.N(); spid++ {
		if err := r.sys.Err(spid); err != nil && !errors.Is(err, sched.ErrCrashed) {
			return err
		}
	}
	if complete {
		for pid := 0; pid < r.cfg.N; pid++ {
			if !r.sys.Crashed(pid) {
				continue
			}
			want := r.wl.Calls(pid, r.cfg.N)
			if got := int(r.progress[pid].Load()); got != want {
				return fmt.Errorf("engine: lost lease: crashed p%d completed %d/%d calls after recovery", pid, got, want)
			}
		}
	}
	if err := hbcheck.CheckRecorder(r.rec, r.cfg.Alg.Compare); err != nil {
		return err
	}
	return mc.CausalCheckBarriers(r.sys.N(), r.sys.Trace(), callsFromEvents(r.rec.Events(), r.spans), r.cfg.Alg.Compare, r.barriers)
}

// replayCrashEntries replays a candidate crash schedule leniently on a
// fresh run (no drain: a prefix is a legal execution) and returns the
// executed entries, the trace, and the check outcome.
func replayCrashEntries(mk func() Config, entries []int) ([]int, []sched.Op, error) {
	r := newCrashRun(mk())
	defer r.sys.Close()
	for _, e := range entries {
		if err := r.apply(e); err != nil {
			return nil, nil, err
		}
	}
	return r.entries, r.sys.Trace(), r.check(false)
}

// isCrashViolation matches the two property-violation shapes a crash run
// can produce (causal or interval-order), as opposed to harness errors.
func isCrashViolation(err error) bool {
	var cv mc.Violation[timestamp.Timestamp]
	var hv hbcheck.Violation[timestamp.Timestamp]
	return errors.As(err, &cv) || errors.As(err, &hv)
}

// crashCounterexample shrinks (via the generic ddmin over the encoded
// entries) and reports a failing crash schedule. Unlike the crash-free
// path it does not serialize a witness reordering: the barrier edges are
// not expressible as a schedule permutation, and the shrunk schedule
// already replays the violation verbatim.
func crashCounterexample(alg string, mk func() Config, entries []int, shrink bool) error {
	if shrink {
		entries = mc.Shrink(entries, func(cand []int) bool {
			_, _, err := replayCrashEntries(mk, cand)
			return err != nil && isCrashViolation(err)
		})
	}
	full, trace, err := replayCrashEntries(mk, entries)
	if err == nil {
		return fmt.Errorf("engine: %s: failing crash schedule %v no longer fails on replay", alg, entries)
	}
	return &Counterexample{Alg: alg, Schedule: full, Steps: len(full), Trace: trace, Err: err}
}

// CrashSweepOptions configures CrashSweep.
type CrashSweepOptions struct {
	// Shrink minimizes any failing crash schedule before reporting it.
	Shrink bool
	// NewAlg constructs a fresh algorithm per execution; see
	// ExhaustiveOptions.NewAlg.
	NewAlg func() timestamp.Algorithm
}

// CrashSweep systematically injects one crash into the configuration's
// workload: for every victim process, every crash point along the
// victim's operation sequence, and both torn-write outcomes (applied and
// dropped), it runs victim-prefix → crash → recovery + survivors to
// completion and verifies the execution. It returns the number of
// executions checked; a violation comes back as a shrunk *Counterexample
// whose Schedule is a replayable crash schedule.
func CrashSweep(cfg Config, opt CrashSweepOptions) (int, error) {
	if _, _, err := cfg.prepare(); err != nil {
		return 0, err
	}
	if !Simulable(cfg.Alg) {
		return 0, fmt.Errorf("%w: %s cannot run under the deterministic scheduler", ErrNeedsAtomic, cfg.Alg.Name())
	}
	mk := func() Config {
		c := cfg
		if opt.NewAlg != nil {
			c.Alg = opt.NewAlg()
		}
		return c
	}
	runs := 0
	for victim := 0; victim < cfg.N; victim++ {
		probe := newCrashRun(mk())
		soloOps, err := probe.sys.Solo(victim)
		probe.sys.Close()
		if err != nil {
			return runs, err
		}
		for j := 0; j < soloOps; j++ {
			for _, applyWrite := range []bool{false, true} {
				crash := sched.CrashDrop(victim)
				if applyWrite {
					crash = sched.CrashApply(victim)
				}
				r := newCrashRun(mk())
				err := func() error {
					for s := 0; s < j; s++ {
						if err := r.apply(victim); err != nil {
							return err
						}
					}
					if err := r.apply(crash); err != nil {
						return err
					}
					if err := r.drain(); err != nil {
						return err
					}
					return r.check(true)
				}()
				r.sys.Close()
				runs++
				if err != nil {
					if isCrashViolation(err) {
						return runs, crashCounterexample(cfg.Alg.Name(), mk, r.entries, opt.Shrink)
					}
					return runs, err
				}
			}
		}
	}
	return runs, nil
}

// CrashFuzzOptions configures CrashFuzz.
type CrashFuzzOptions struct {
	// Count is the number of random executions; values < 1 mean 1.
	Count int
	// Crashes caps the crashes injected per execution; values < 1 mean 1.
	Crashes int
	// Shrink minimizes any failing crash schedule before reporting it.
	Shrink bool
	// NewAlg constructs a fresh algorithm per execution.
	NewAlg func() timestamp.Algorithm
}

// CrashFuzz stress-tests the configuration on Count random maximal
// executions with randomly placed crashes (seeded from cfg.Seed): at
// random points a random live primary is crashed, applying or dropping
// its pending write by coin flip, and its recovery incarnation joins the
// interleaving. Violations come back as shrunk *Counterexamples with
// replayable crash schedules.
func CrashFuzz(cfg Config, opt CrashFuzzOptions) (FuzzReport, error) {
	rep := FuzzReport{World: Simulated}
	if _, _, err := cfg.prepare(); err != nil {
		return rep, err
	}
	if !Simulable(cfg.Alg) {
		return rep, fmt.Errorf("%w: %s cannot run under the deterministic scheduler", ErrNeedsAtomic, cfg.Alg.Name())
	}
	count := opt.Count
	if count < 1 {
		count = 1
	}
	crashes := opt.Crashes
	if crashes < 1 {
		crashes = 1
	}
	mk := func() Config {
		c := cfg
		if opt.NewAlg != nil {
			c.Alg = opt.NewAlg()
		}
		return c
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < count; i++ {
		r := newCrashRun(mk())
		err := r.randomMaximal(rng, crashes)
		if err == nil {
			err = r.check(true)
		}
		rep.Steps += r.sys.Steps()
		entries := r.entries
		r.sys.Close()
		if err != nil {
			if isCrashViolation(err) {
				return rep, crashCounterexample(cfg.Alg.Name(), mk, entries, opt.Shrink)
			}
			return rep, err
		}
		rep.Schedules++
	}
	return rep, nil
}

// randomMaximal drives the crash run to completion with uniformly random
// scheduling, injecting up to `crashes` crashes at random points.
func (r *crashRun) randomMaximal(rng *rand.Rand, crashes int) error {
	n := r.cfg.N
	for {
		var live, prims []int
		for spid := 0; spid < r.sys.N(); spid++ {
			if _, alive, err := r.sys.Pending(spid); err != nil {
				return err
			} else if alive {
				live = append(live, spid)
				if spid < n && !r.sys.Crashed(spid) {
					prims = append(prims, spid)
				}
			}
		}
		if len(live) == 0 {
			return nil
		}
		if crashes > 0 && len(prims) > 0 && rng.Intn(6) == 0 {
			victim := prims[rng.Intn(len(prims))]
			entry := sched.CrashDrop(victim)
			if rng.Intn(2) == 0 {
				entry = sched.CrashApply(victim)
			}
			if err := r.apply(entry); err != nil {
				return err
			}
			crashes--
			continue
		}
		if err := r.apply(live[rng.Intn(len(live))]); err != nil {
			return err
		}
	}
}

// ReplayCrashSchedule replays an explicit crash schedule (the artifact
// format of ParseCrashSchedule, already decoded to entries) leniently on
// the configuration and returns the executed report together with the
// property-check outcome — the tstrace entry point for crash witnesses.
// The report's Trace spans 2·cfg.N scheduler pids: pid n+p is the
// recovery incarnation of paper process p.
func ReplayCrashSchedule(cfg Config, entries []int) (*Report, error) {
	if _, _, err := cfg.prepare(); err != nil {
		return nil, err
	}
	if !Simulable(cfg.Alg) {
		return nil, fmt.Errorf("%w: %s cannot run under the deterministic scheduler", ErrNeedsAtomic, cfg.Alg.Name())
	}
	r := newCrashRun(cfg)
	defer r.sys.Close()
	for _, e := range entries {
		if err := r.apply(e); err != nil {
			return nil, err
		}
	}
	rep := cfg.report(r.wl, 0)
	rep.World = Simulated
	rep.Workload = fmt.Sprintf("crash-replay/%d-entries", len(r.entries))
	rep.Events = r.rec.Events()
	rep.Steps = r.sys.Steps()
	rep.Trace = r.sys.Trace()
	return rep, r.check(false)
}
