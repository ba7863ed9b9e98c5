package register

import "sync/atomic"

// Middleware decorates a Mem with one cross-cutting concern — metering or
// write discipline. Layers compose with Wrap; a nil middleware is skipped,
// so conditional layers read naturally:
//
//	mem = register.Wrap(base,
//		register.Metered(meter),
//		register.DisciplineFor(alg.WriterTable(), pid),
//	)
//
// Each layer builds one handle type, which forwards the scalar pair
// (MaxInt64, WriteInt64) to the memory below like any other operation, so
// a stack over an Int64Array keeps its allocation-free collect end to end.
type Middleware func(Mem) Mem

// Wrap applies mws to mem in order: the first middleware ends up closest
// to the backing memory, the last is outermost (its methods run first).
// Nil middlewares are skipped.
func Wrap(mem Mem, mws ...Middleware) Mem {
	for _, mw := range mws {
		if mw != nil {
			mem = mw(mem)
		}
	}
	return mem
}

// Metered counts every register operation passing through the layer for
// meter, which may be shared by any number of handles. This layer is the
// only way operations reach a Meter. Each handle it builds registers with
// the meter and keeps its own counters, so no register operation takes a
// lock. A collect (MaxInt64) of m registers counts as its m reads, added
// in one step, so the totals stay exact per read.
func Metered(meter *Meter) Middleware {
	return func(inner Mem) Mem {
		h := &meteredMem{meter: meter, inner: inner}
		meter.add(h)
		return h
	}
}

// meteredMem is one metered handle. Its counters live in the handle's own
// allocation, which is padded to 64 bytes on 64-bit platforms; the
// allocator puts objects of that size on 64-byte boundaries, so each
// handle fills one cache line and handles driven from different cores
// never write a common line for metering. A write adds to its counter
// before it marks its register in the meter's bitmap, which is what keeps
// Totals' Written ≤ Writes.
type meteredMem struct {
	meter         *Meter
	inner         Mem
	reads, writes atomic.Uint64
	next          *meteredMem // the meter's previous handle
	_             [16]byte    // pads the handle to one cache line
}

func (m *meteredMem) Size() int { return m.inner.Size() }

func (m *meteredMem) Read(i int) Value {
	m.reads.Add(1)
	return m.inner.Read(i)
}

func (m *meteredMem) Write(i int, v Value) {
	m.writes.Add(1)
	m.meter.markWritten(i)
	m.inner.Write(i, v)
}

// MaxInt64 counts the collect's regs reads with one add and forwards it.
//
//tslint:hotpath
func (m *meteredMem) MaxInt64(regs int) int64 {
	m.reads.Add(uint64(regs))
	return m.inner.MaxInt64(regs)
}

// WriteInt64 counts a write, marks register i written and forwards it.
//
//tslint:hotpath
func (m *meteredMem) WriteInt64(i int, v int64) {
	m.writes.Add(1)
	m.meter.markWritten(i)
	m.inner.WriteInt64(i, v)
}

// FirstOpStamp captures a clock stamp immediately after the first granted
// operation of a wrapped memory. Under the deterministic scheduler a
// process "begins" when it is first scheduled: it posts its first request
// at spawn, so stamping any earlier degenerates to creation time and every
// interval looks concurrent. Stamping after the first granted operation is
// sound by the usual reduction — local computation before the first shared
// step is invisible to the system, so there is an equivalent execution in
// which the invocation happens just before that step.
type FirstOpStamp struct {
	clock   func() uint64
	started bool
	stamp   uint64
}

// StampFirstOp wraps inner so that the returned handle's stamp is taken
// from clock right after the wrapped memory's first operation executes.
// Use one wrapper per method call; the handle is not safe for concurrent
// use (each simulated process is single-threaded).
func StampFirstOp(inner Mem, clock func() uint64) (Mem, *FirstOpStamp) {
	s := &FirstOpStamp{clock: clock}
	return &stampedMem{inner: inner, s: s}, s
}

// Stamp returns the recorded stamp, taking it now if no operation has
// executed yet (an operation-free call begins at its first visible point,
// which is its response).
func (s *FirstOpStamp) Stamp() uint64 {
	s.note()
	return s.stamp
}

func (s *FirstOpStamp) note() {
	if !s.started {
		s.started = true
		s.stamp = s.clock()
	}
}

type stampedMem struct {
	inner Mem
	s     *FirstOpStamp
}

func (m *stampedMem) Size() int { return m.inner.Size() }

func (m *stampedMem) Read(i int) Value {
	v := m.inner.Read(i)
	m.s.note()
	return v
}

func (m *stampedMem) Write(i int, v Value) {
	m.inner.Write(i, v)
	m.s.note()
}

// MaxInt64 collects with regs Reads, so the stamp is taken right after
// the first of them, not after the whole collect.
func (m *stampedMem) MaxInt64(regs int) int64 { return CollectMax(m, regs) }

func (m *stampedMem) WriteInt64(i int, v int64) {
	m.inner.WriteInt64(i, v)
	m.s.note()
}
