package engine

import (
	"fmt"
	"math/rand"

	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
)

// Crash-recovery fault injection: the crash workload of the simulated
// world. A crash run (newSimRun with crashes set) is built over 2n
// scheduler processes — n primaries plus n lazy recovery incarnations, one
// per paper process. A crash-schedule entry (see sched.CrashDrop /
// sched.CrashApply) halts a primary at its gate, its pending write either
// applied (the torn write that landed) or dropped, and releases the
// recovery incarnation of the same paper pid: the crashed pid re-leased
// into the system, resuming the interrupted call with the same (pid, seq)
// identity against whatever the registers hold.
//
// Verification is the conformance machinery plus two crash-specific
// pieces: a causal barrier per crash (the recovery's operations cannot be
// reordered before the predecessor's last executed operation — a real
// causal edge no register conflict expresses) and the plain interval-order
// check over the recorder, which also constrains operation-free retries
// that the causal checker exempts.

// drain runs every live process to completion round-robin, recording the
// steps taken as entries.
func (r *simRun) drain() error {
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
	h, err := newHarness(cfg, opt.NewAlg, true)
	if err != nil {
		return 0, err
	}
	runs := 0
	for victim := 0; victim < cfg.N; victim++ {
		probe := h.run()
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
				r := h.run()
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
					if isViolation(err) {
						return runs, h.counterexample(r.entries, opt.Shrink)
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
	h, err := newHarness(cfg, opt.NewAlg, true)
	if err != nil {
		return rep, err
	}
	count := opt.Count
	if count < 1 {
		count = 1
	}
	crashes := opt.Crashes
	if crashes < 1 {
		crashes = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < count; i++ {
		r := h.run()
		err := r.randomMaximal(rng, crashes)
		if err == nil {
			err = r.check(true)
		}
		rep.Steps += r.sys.Steps()
		entries := r.entries
		r.sys.Close()
		if err != nil {
			if isViolation(err) {
				return rep, h.counterexample(entries, opt.Shrink)
			}
			return rep, err
		}
		rep.Schedules++
	}
	return rep, nil
}

// randomMaximal drives the crash run to completion with uniformly random
// scheduling, injecting up to `crashes` crashes at random points.
func (r *simRun) randomMaximal(rng *rand.Rand, crashes int) error {
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
	h, err := newHarness(cfg, nil, true)
	if err != nil {
		return nil, err
	}
	r, err := h.replay(entries)
	if r == nil {
		return nil, err
	}
	rep := cfg.report(r.wl, 0)
	rep.World = Simulated
	rep.Workload = fmt.Sprintf("crash-replay/%d-entries", len(r.entries))
	rep.Events = r.rec.Events()
	rep.Steps = r.sys.Steps()
	rep.Trace = r.sys.Trace()
	return rep, err
}
