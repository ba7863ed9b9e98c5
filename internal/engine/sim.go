package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tsspace/internal/hbcheck"
	"tsspace/internal/mc"
	"tsspace/internal/register"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
)

// The simulated-run harness: every execution the deterministic scheduler
// drives — exploration, fuzzing, crash injection, replay and shrinking,
// and the systems NewSimSystem hands out — is one simRun.

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
func callsFromEvents(events []hbcheck.Event, spans *callSpans) []mc.Call {
	out := make([]mc.Call, 0, len(events))
	for _, ev := range events {
		first, last := spans.get(ev.Pid, ev.Seq)
		out = append(out, mc.Call{Pid: ev.Pid, Seq: ev.Seq, First: first, Last: last, Val: ev.Val})
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

// simRun is one simulated execution and its bookkeeping.
type simRun struct {
	cfg      Config
	wl       Workload
	crashes  bool
	sys      *sched.System
	rec      *hbcheck.Recorder
	meter    *register.Meter
	spans    *callSpans
	progress []atomic.Int32 // completed calls per paper pid
	barriers []mc.Barrier
	entries  []int // executed schedule entries
}

// newSimRun builds an execution of cfg's workload: scheduler pids 0..n-1
// are the paper processes, each running its call loop over the full
// middleware stack (per-process operation counter, shared meter,
// per-process discipline, per-call first-op stamping). With crashes set,
// scheduler pid n+p is the parked recovery incarnation of paper process p,
// released if and when p crashes. Recorder events and call spans are keyed
// by scheduler pid so the causal analysis lines up with the trace; the
// algorithm always sees the paper pid.
func newSimRun(cfg Config, crashes bool) *simRun {
	wl := cfg.Workload
	if wl == nil {
		wl = OneShot{}
	}
	n, m := cfg.N, cfg.Alg.Registers()
	table := cfg.Alg.WriterTable()
	r := &simRun{
		cfg:      cfg,
		wl:       wl,
		crashes:  crashes,
		rec:      &hbcheck.Recorder{},
		meter:    register.NewMeterSize(m),
		spans:    newCallSpans(),
		progress: make([]atomic.Int32, n),
	}
	metered := register.Metered(r.meter)
	if cfg.Unmetered {
		metered = nil
	}
	procs := n
	if crashes {
		procs = 2 * n
	}
	r.sys = sched.NewLazy(procs, m, n, func(spid int, mem register.Mem) (any, error) {
		paper := spid % n
		// The op counter sits directly above the scheduler's memory so
		// its counts line up one-to-one with the operations the scheduler
		// attributes to this process. A plain int suffices: each process
		// body is single-threaded, and the counter is read only between
		// the process's own calls.
		counter := &opCounter{}
		mem = register.Wrap(mem,
			counted(counter),
			metered,
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

// apply executes one schedule entry (see sched.DecodeCrash) leniently:
// entries naming parked, terminated, out-of-range or already-crashed
// processes are skipped, and so are crash entries on a crash-free run,
// which has no recovery incarnation to release. ddmin deletes entries
// freely; whatever remains must still replay. Executed entries accumulate
// in r.entries.
func (r *simRun) apply(entry int) error {
	pid, applyWrite, isCrash := sched.DecodeCrash(entry)
	if isCrash {
		if !r.crashes || pid >= r.cfg.N {
			return nil
		}
		if _, alive, err := r.sys.Pending(pid); err != nil {
			return err
		} else if !alive {
			return nil // terminated, or crashed already
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

// check verifies the execution. It surfaces process errors (ErrCrashed is
// the point of a crash run, not a failure). When the execution is
// complete it asserts that no pid lease was lost: every crashed process's
// recovery finished the paper process's full call budget. A crash run
// then checks the interval order over the recorder, which also constrains
// operation-free retries that the causal checker exempts. Last, the causal
// check covers the whole equivalence class, with a crash run's barriers.
func (r *simRun) check(complete bool) error {
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
	if r.crashes {
		if err := hbcheck.Check(r.rec.Events()); err != nil {
			return err
		}
	}
	return mc.CausalCheckBarriers(r.sys.N(), r.sys.Trace(), callsFromEvents(r.rec.Events(), r.spans), r.barriers)
}

// isViolation matches the property violations a run's check produces
// (causal or interval-order), as opposed to harness errors.
func isViolation(err error) bool {
	var cv mc.Violation
	var hv hbcheck.Violation
	return errors.As(err, &cv) || errors.As(err, &hv)
}

// harness builds the executions of one simulated check: each runs cfg
// with a fresh algorithm from newAlg (cfg.Alg itself when newAlg is nil),
// with recovery incarnations when crashes is set.
type harness struct {
	cfg     Config
	newAlg  func() timestamp.Algorithm
	crashes bool
}

// newHarness validates cfg. The error wraps ErrNeedsAtomic when the
// algorithm cannot run under the deterministic scheduler; the harness's
// config is still usable then, for an atomic-world fallback.
func newHarness(cfg Config, newAlg func() timestamp.Algorithm, crashes bool) (harness, error) {
	h := harness{cfg: cfg, newAlg: newAlg, crashes: crashes}
	if _, _, err := cfg.prepare(); err != nil {
		return h, err
	}
	if !Simulable(cfg.Alg) {
		return h, fmt.Errorf("%w: %s cannot run under the deterministic scheduler", ErrNeedsAtomic, cfg.Alg.Name())
	}
	return h, nil
}

// config returns the configuration of one execution.
func (h harness) config() Config {
	c := h.cfg
	if h.newAlg != nil {
		c.Alg = h.newAlg()
	}
	return c
}

// run builds one execution.
func (h harness) run() *simRun { return newSimRun(h.config(), h.crashes) }

// replay applies entries leniently to a fresh execution and checks it.
// The execution is deliberately NOT driven to completion: a prefix is a
// legal execution, and leaving irrelevant processes unfinished is what
// lets the shrinker cut a counterexample down to just the operations of
// the offending calls. The returned run is closed; it is nil when the
// harness itself failed.
func (h harness) replay(entries []int) (*simRun, error) {
	r := h.run()
	defer r.sys.Close()
	for _, e := range entries {
		if err := r.apply(e); err != nil {
			return nil, err
		}
	}
	return r, r.check(false)
}

// counterexample replays a failing schedule, shrunk by ddmin over its
// entries when shrink is set, into a *Counterexample. On a crash-free run
// a causal violation may be realizable only in a reordering of the
// replayed interleaving, so the witness is serialized to exhibit the
// violating pair back to back — directly visible to the plain
// interval-order checker on replay. A crash run's witness is reported as
// replayed: its barrier edges are not expressible as a schedule
// permutation, and the shrunk schedule already replays the violation
// verbatim.
func (h harness) counterexample(entries []int, shrink bool) error {
	if shrink {
		entries = mc.Shrink(entries, func(cand []int) bool {
			_, err := h.replay(cand)
			return isViolation(err)
		})
	}
	r, err := h.replay(entries)
	if err == nil {
		// Shrinking is pure replay, so this cannot happen unless the
		// algorithm is nondeterministic; surface that instead of hiding it.
		return fmt.Errorf("engine: %s: failing schedule %v no longer fails on replay", h.cfg.Alg.Name(), entries)
	}
	if r == nil {
		return err
	}
	var v mc.Violation
	if !h.crashes && errors.As(err, &v) {
		if ws := mc.WitnessSchedule(h.cfg.N, r.sys.Trace(), v); ws != nil {
			if wr, wErr := h.replay(ws); isViolation(wErr) {
				r, err = wr, wErr
			}
		}
	}
	return &Counterexample{Alg: h.cfg.Alg.Name(), Schedule: r.entries, Steps: len(r.entries), Trace: r.sys.Trace(), Err: err}
}
