// Package sched is a deterministic step scheduler for asynchronous
// shared-memory algorithms. It realizes the execution model of Section 2 of
// the paper: a configuration is the tuple of process states and register
// values; a schedule is a sequence of process indices; an execution (C;σ)
// applies one pending shared-memory operation at a time.
//
// Each process runs as a goroutine but every register operation passes
// through a gate: the process publishes its next operation and blocks until
// the scheduler grants it. Consequently the scheduler can observe the
// operation a process is *poised* to perform before it happens — exactly
// the "process p covers register r" notion that the covering arguments of
// Sections 3 and 4 are built on — and can drive solo executions, block
// writes, and arbitrary adversarial interleavings.
package sched

import (
	"errors"
	"fmt"
	"time"

	"tsspace/internal/bitset"
	"tsspace/internal/register"
)

// OpKind distinguishes the two register operations of the model.
type OpKind int

// Register operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

// String returns "read" or "write".
func (k OpKind) String() string {
	if k == OpRead {
		return "read"
	}
	return "write"
}

// Op is a pending or executed register operation.
type Op struct {
	Pid  int            // process performing the operation
	Kind OpKind         // read or write
	Reg  int            // register index
	Val  register.Value // value written (writes only)
	Step int            // global step number once executed (-1 while pending)
}

// String renders the op for traces and failures.
func (o Op) String() string {
	if o.Kind == OpRead {
		return fmt.Sprintf("p%d:read(r%d)", o.Pid, o.Reg)
	}
	return fmt.Sprintf("p%d:write(r%d, %v)", o.Pid, o.Reg, o.Val)
}

// Errors reported by the scheduler.
var (
	// ErrTerminated is returned when stepping a process whose program has
	// completed.
	ErrTerminated = errors.New("sched: process has terminated")
	// ErrTimeout is returned when a process fails to reach its next
	// operation (or terminate) within the watchdog interval; it indicates a
	// deadlocked or runaway process body.
	ErrTimeout = errors.New("sched: timed out waiting for process")
	// ErrCrashed is the Err of a process halted by Crash: fault injection,
	// not a property violation. Harnesses that tolerate crashes match it
	// with errors.Is and skip the process.
	ErrCrashed = errors.New("sched: process crashed")
)

// Watchdog bounds how long the scheduler waits for a process to either post
// its next operation or terminate. Process bodies perform only local
// computation between operations, so in a correct system this never fires;
// it converts a stuck body (deadlock, infinite local loop) into ErrTimeout
// instead of a hung test. Tests may shorten it.
var Watchdog = 10 * time.Second

type request struct {
	op    Op
	reply chan register.Value
}

type proc struct {
	pid     int
	reqCh   chan request
	doneCh  chan struct{}
	killCh  chan struct{}
	startCh chan struct{} // non-nil for lazy processes; closed by Release
	started bool          // lazy process released into the system
	pending *request      // posted but not yet granted
	done    bool
	crashed bool
	result  any
	err     error
}

// errKilled marks a process aborted by System.Close; it is converted to a
// captured error by the body's recover wrapper.
var errKilled = errors.New("sched: process killed by Close")

// Body is a process program: it receives the process id and a Mem handle
// whose operations are gated by the scheduler. The returned value is
// retained and available via Result; a panic inside the body is captured
// and surfaced as an error.
type Body func(pid int, mem register.Mem) (any, error)

// System is a scheduled shared-memory system: n processes over m registers.
type System struct {
	mem   []register.Value
	procs []*proc
	trace []Op
	steps int
}

// New creates a system of n processes over m registers (all ⊥) running
// body, and launches the process goroutines. Every process immediately runs
// up to its first register operation (or termination).
func New(n, m int, body Body) *System {
	return NewLazy(n, m, n, body)
}

// NewLazy is New, but processes with pid ≥ firstLazy start parked: they do
// not run body until Release admits them. A parked process reports as
// terminated (not alive, nil error), so schedules, drains and signatures
// ignore it — it models a process that has not yet entered the system, such
// as the recovery incarnation of a pid that has not crashed yet.
func NewLazy(n, m, firstLazy int, body Body) *System {
	s := &System{
		mem:   make([]register.Value, m),
		procs: make([]*proc, n),
	}
	for i := 0; i < n; i++ {
		p := &proc{
			pid:    i,
			reqCh:  make(chan request),
			doneCh: make(chan struct{}),
			killCh: make(chan struct{}),
		}
		if i >= firstLazy {
			p.startCh = make(chan struct{})
		}
		s.procs[i] = p
		go func() {
			defer close(p.doneCh)
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); ok && errors.Is(err, errKilled) {
						p.err = errKilled
						return
					}
					p.err = fmt.Errorf("sched: process %d panicked: %v", p.pid, r)
				}
			}()
			if p.startCh != nil {
				select {
				case <-p.startCh:
				case <-p.killCh:
					return
				}
			}
			res, err := body(p.pid, &procMem{p: p, size: m})
			p.result = res
			if err != nil {
				p.err = err
			}
		}()
	}
	return s
}

// Release admits a lazy process into the system: it starts running body and
// is alive from the caller's perspective as soon as Release returns. It is
// an error to release a process that was not created lazy or was already
// released.
func (s *System) Release(pid int) error {
	p := s.procs[pid]
	if p.startCh == nil {
		return fmt.Errorf("sched: process %d is not lazy", pid)
	}
	if p.started {
		return fmt.Errorf("sched: process %d already released", pid)
	}
	p.started = true
	close(p.startCh)
	return nil
}

// procMem is the per-process gated memory handle.
type procMem struct {
	p    *proc
	size int
}

var _ register.Mem = (*procMem)(nil)

func (m *procMem) Size() int { return m.size }

func (m *procMem) Read(i int) register.Value {
	return m.post(Op{Pid: m.p.pid, Kind: OpRead, Reg: i, Step: -1})
}

func (m *procMem) Write(i int, v register.Value) {
	m.post(Op{Pid: m.p.pid, Kind: OpWrite, Reg: i, Val: v, Step: -1})
}

// MaxInt64 collects with m gated reads: one scheduler step per register.
func (m *procMem) MaxInt64(n int) int64 { return register.CollectMax(m, n) }

func (m *procMem) WriteInt64(i int, v int64) { m.Write(i, v) }

func (m *procMem) post(op Op) register.Value {
	req := request{op: op, reply: make(chan register.Value)}
	select {
	case m.p.reqCh <- req:
	case <-m.p.killCh:
		panic(errKilled)
	}
	select {
	case v := <-req.reply:
		return v
	case <-m.p.killCh:
		panic(errKilled)
	}
}

// N returns the number of processes.
func (s *System) N() int { return len(s.procs) }

// M returns the number of registers.
func (s *System) M() int { return len(s.mem) }

// Steps returns the number of operations executed so far.
func (s *System) Steps() int { return s.steps }

// Trace returns the executed operations in order. The returned slice must
// not be modified.
func (s *System) Trace() []Op { return s.trace }

// Value returns the current content of register i (nil for ⊥).
func (s *System) Value(i int) register.Value { return s.mem[i] }

// Values returns a copy of the register contents.
func (s *System) Values() []register.Value {
	out := make([]register.Value, len(s.mem))
	copy(out, s.mem)
	return out
}

// SetValue overwrites register i directly (test setup only; it is not an
// execution step and does not appear in the trace).
func (s *System) SetValue(i int, v register.Value) { s.mem[i] = v }

// fetch waits until process pid has posted its next operation or has
// terminated. It returns ErrTerminated or ErrTimeout accordingly.
func (s *System) fetch(pid int) (*request, error) {
	p := s.procs[pid]
	if p.pending != nil {
		return p.pending, nil
	}
	if p.done {
		return nil, ErrTerminated
	}
	if p.startCh != nil && !p.started {
		// A parked lazy process is not in the system yet; it reports as
		// terminated (with nil error) until Release.
		return nil, ErrTerminated
	}
	select {
	case req := <-p.reqCh:
		p.pending = &req
		return p.pending, nil
	case <-p.doneCh:
		p.done = true
		return nil, ErrTerminated
	case <-time.After(Watchdog):
		return nil, fmt.Errorf("%w: process %d", ErrTimeout, pid)
	}
}

// Pending returns the operation process pid is poised to perform. ok is
// false if the process has terminated. It blocks (bounded by the watchdog)
// while the process computes locally.
func (s *System) Pending(pid int) (Op, bool, error) {
	req, err := s.fetch(pid)
	if errors.Is(err, ErrTerminated) {
		return Op{}, false, nil
	}
	if err != nil {
		return Op{}, false, err
	}
	return req.op, true, nil
}

// Covers reports whether process pid is poised to write, and if so to which
// register: the covering relation of Section 2.
func (s *System) Covers(pid int) (reg int, ok bool, err error) {
	op, alive, err := s.Pending(pid)
	if err != nil || !alive || op.Kind != OpWrite {
		return 0, false, err
	}
	return op.Reg, true, nil
}

// Step executes the pending operation of process pid and runs the process
// up to its next operation (or termination). It returns the executed
// operation.
func (s *System) Step(pid int) (Op, error) {
	req, err := s.fetch(pid)
	if err != nil {
		return Op{}, err
	}
	op := req.op
	op.Step = s.steps
	var readVal register.Value
	switch op.Kind {
	case OpRead:
		readVal = s.mem[op.Reg]
	case OpWrite:
		s.mem[op.Reg] = op.Val
	}
	s.steps++
	s.trace = append(s.trace, op)
	s.procs[pid].pending = nil
	req.reply <- readVal
	// Stepping is synchronous: wait until the process completes its local
	// computation and reaches its next gate (or terminates), so that
	// configurations between steps are quiescent and any process-local
	// bookkeeping (tracers, recorders) is globally ordered with the steps.
	if _, err := s.fetch(pid); err != nil && !errors.Is(err, ErrTerminated) {
		return op, err
	}
	return op, nil
}

// Crash halts process pid at its gate: the process takes no further steps,
// ever. Its pending operation is the torn write of the crash-recovery
// model — if it is a write and applyPending is true, the write takes effect
// (and appears in the trace) without the process learning it did; otherwise
// the operation is dropped as if it never happened. Pending reads are
// always dropped: a read has no memory effect to tear. The process's Err
// becomes ErrCrashed and Done reports true, so drains and schedules skip
// it like any terminated process.
//
// Crash blocks (bounded by the watchdog) until the victim has posted its
// next operation, so the crash point is a well-defined configuration, and
// until the victim's goroutine has unwound, so no code of the victim runs
// concurrently with anything after Crash returns.
func (s *System) Crash(pid int, applyPending bool) (op Op, applied bool, err error) {
	req, err := s.fetch(pid)
	if err != nil {
		return Op{}, false, fmt.Errorf("sched: crash p%d: %w", pid, err)
	}
	p := s.procs[pid]
	op = req.op
	if applyPending && op.Kind == OpWrite {
		op.Step = s.steps
		s.mem[op.Reg] = op.Val
		s.steps++
		s.trace = append(s.trace, op)
		applied = true
	}
	p.pending = nil
	close(p.killCh) // the victim's gate panics errKilled and unwinds
	select {
	case <-p.doneCh:
	case <-time.After(Watchdog):
		return op, applied, fmt.Errorf("%w: crash p%d", ErrTimeout, pid)
	}
	p.done = true
	p.crashed = true
	p.err = fmt.Errorf("%w: p%d poised to %v (applied=%v)", ErrCrashed, pid, op, applied)
	return op, applied, nil
}

// Crashed reports whether process pid was halted by Crash.
func (s *System) Crashed(pid int) bool { return s.procs[pid].crashed }

// Run executes the schedule: one step per process index, in order.
func (s *System) Run(schedule ...int) error {
	for i, pid := range schedule {
		if _, err := s.Step(pid); err != nil {
			return fmt.Errorf("sched: schedule position %d (p%d): %w", i, pid, err)
		}
	}
	return nil
}

// Done reports whether process pid has terminated (and therefore has a
// result). It blocks (bounded by the watchdog) until the process either
// posts its next operation or terminates, so the answer is definitive.
func (s *System) Done(pid int) bool {
	_, alive, err := s.Pending(pid)
	return err == nil && !alive
}

// Solo runs process pid alone until it terminates: the solo execution of
// Section 2. It returns the number of steps taken.
func (s *System) Solo(pid int) (int, error) {
	steps := 0
	for {
		_, alive, err := s.Pending(pid)
		if err != nil {
			return steps, err
		}
		if !alive {
			return steps, nil
		}
		if _, err := s.Step(pid); err != nil {
			return steps, err
		}
		steps++
	}
}

// RunUntil steps process pid while its pending operation does NOT satisfy
// stop, leaving the process poised at the first operation satisfying stop
// (that operation is not executed). It returns false if the process
// terminated first.
func (s *System) RunUntil(pid int, stop func(Op) bool) (bool, error) {
	for {
		op, alive, err := s.Pending(pid)
		if err != nil {
			return false, err
		}
		if !alive {
			return false, nil
		}
		if stop(op) {
			return true, nil
		}
		if _, err := s.Step(pid); err != nil {
			return false, err
		}
	}
}

// CoverOutside runs process pid solo until it is poised to write to a
// register outside R (the move used throughout Lemma 4.1): the process
// pauses covering such a register. It returns false if the process
// terminated without writing outside R.
func (s *System) CoverOutside(pid int, r *bitset.Set) (bool, error) {
	return s.RunUntil(pid, func(op Op) bool {
		return op.Kind == OpWrite && !r.Contains(op.Reg)
	})
}

// BlockWrite performs a block-write (§2): each process in pids takes exactly
// one step, which must be its pending write. It fails if any process is not
// poised to write.
func (s *System) BlockWrite(pids ...int) error {
	for _, pid := range pids {
		op, alive, err := s.Pending(pid)
		if err != nil {
			return err
		}
		if !alive {
			return fmt.Errorf("sched: block write: process %d terminated", pid)
		}
		if op.Kind != OpWrite {
			return fmt.Errorf("sched: block write: process %d poised to %v, not a write", pid, op)
		}
		if _, err := s.Step(pid); err != nil {
			return err
		}
	}
	return nil
}

// Result returns the value returned by process pid's body. It is only valid
// once Done(pid) is true (after a Solo or exhausted schedule); otherwise ok
// is false.
func (s *System) Result(pid int) (any, bool) {
	if !s.Done(pid) {
		return nil, false
	}
	return s.procs[pid].result, true
}

// Err returns the error (or captured panic) from process pid's body, if it
// has terminated.
func (s *System) Err(pid int) error {
	if !s.Done(pid) {
		return nil
	}
	return s.procs[pid].err
}

// Signature returns how many processes currently cover each register: the
// configuration signature sig(C) of Section 3. Terminated and reading
// processes contribute nothing.
func (s *System) Signature() ([]int, error) {
	sig := make([]int, len(s.mem))
	for pid := range s.procs {
		reg, ok, err := s.Covers(pid)
		if err != nil {
			return nil, err
		}
		if ok {
			sig[reg]++
		}
	}
	return sig, nil
}

// Close aborts every process that is still blocked at the gate, releasing
// its goroutine. The system must not be used afterwards. Close is needed
// when an execution is abandoned mid-way (exploration replays many
// executions); draining a system to completion makes Close a no-op.
func (s *System) Close() {
	for _, p := range s.procs {
		select {
		case <-p.killCh:
		default:
			close(p.killCh)
		}
	}
}

// Drain runs every live process to completion round-robin; useful to finish
// an execution after the interesting prefix has been driven explicitly.
func (s *System) Drain() error {
	for {
		progressed := false
		for pid := range s.procs {
			_, alive, err := s.Pending(pid)
			if err != nil {
				return err
			}
			if !alive {
				continue
			}
			if _, err := s.Step(pid); err != nil {
				return err
			}
			progressed = true
		}
		if !progressed {
			return nil
		}
	}
}
