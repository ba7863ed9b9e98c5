package register

import (
	"math/bits"
	"sync/atomic"
)

// SpaceReport summarizes the register footprint of an execution: it is the
// measurement backing every space experiment (E3, E4, E8, E9). The paper
// counts a register as "used" once it can be written, so the report is
// built from the written set.
type SpaceReport struct {
	// Registers is the size of the underlying array (the allocation budget).
	Registers int
	// Written is the number of distinct registers written at least once.
	Written int
	// WrittenSet lists the written register indices in increasing order.
	WrittenSet []int
	// MaxWrittenIndex is the largest written index, or -1 if none.
	MaxWrittenIndex int
	// Reads and Writes are total operation counts.
	Reads, Writes uint64
}

// Meter collects the operation counts of every Metered handle built over
// it. Nothing on it takes a lock: each handle counts its own reads and
// writes in its own cache line, and a write sets its register's bit in a
// shared written-register bitmap, which costs one load once the bit is
// set. Totals and Report sum the handles and count the bitmap when they
// are called. Any number of per-process stacks may share one Meter, and a
// handle may be driven from several goroutines.
type Meter struct {
	size    int
	written []atomic.Uint64            // bit i of word i/64 is set once register i is written
	handles atomic.Pointer[meteredMem] // newest handle; each links to the one before
}

// NewMeterSize returns a meter for size registers, fed through the Metered
// middleware.
func NewMeterSize(size int) *Meter {
	return &Meter{size: size, written: make([]atomic.Uint64, (size+63)/64)}
}

// add pushes h onto the handle list. A handle's link is set before it is
// published and never changes after.
func (m *Meter) add(h *meteredMem) {
	for {
		h.next = m.handles.Load()
		if m.handles.CompareAndSwap(h.next, h) {
			return
		}
	}
}

// markWritten sets register i's bit. The load first keeps an already-set
// bit a read of a shared line, so only the first write of each register
// pays an atomic read-modify-write.
func (m *Meter) markWritten(i int) {
	w, bit := &m.written[i/64], uint64(1)<<(i%64)
	if w.Load()&bit == 0 {
		w.Or(bit)
	}
}

// Totals is the scrape-cheap slice of a SpaceReport: the four scalar
// space measures, without building the written set.
type Totals struct {
	// Registers is the allocated array size (the budget).
	Registers int
	// Written is the number of distinct registers written at least once —
	// the paper's "used" count that the Θ-bound certificates bound.
	Written int
	// Reads and Writes are total operation counts.
	Reads, Writes uint64
}

// Totals returns the scalar space measures: the bitmap's population count
// and the sum of every handle's counters, read in that order. A write
// counts itself before it sets its bit, so every snapshot has
// Written ≤ Writes, and successive snapshots never decrease. Once the
// operations have stopped, the totals are exact.
func (m *Meter) Totals() Totals {
	t := Totals{Registers: m.size}
	for i := range m.written {
		t.Written += bits.OnesCount64(m.written[i].Load())
	}
	t.Reads, t.Writes = m.ops()
	return t
}

// Report returns the current space report: Totals plus the written set,
// from one pass over the bitmap.
func (m *Meter) Report() SpaceReport {
	r := SpaceReport{Registers: m.size, MaxWrittenIndex: -1}
	for i := range m.written {
		for w := m.written[i].Load(); w != 0; w &= w - 1 {
			r.WrittenSet = append(r.WrittenSet, 64*i+bits.TrailingZeros64(w))
		}
	}
	if r.Written = len(r.WrittenSet); r.Written > 0 {
		r.MaxWrittenIndex = r.WrittenSet[r.Written-1]
	}
	r.Reads, r.Writes = m.ops()
	return r
}

// ops sums the read and write counters of every handle.
func (m *Meter) ops() (reads, writes uint64) {
	for h := m.handles.Load(); h != nil; h = h.next {
		reads += h.reads.Load()
		writes += h.writes.Load()
	}
	return reads, writes
}
