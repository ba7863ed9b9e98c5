package register

import (
	"math/bits"
	"sync/atomic"
)

// Meter collects the operation counts of every Metered handle built over
// it: the one source of an object's Totals. Nothing on it takes a lock:
// each handle counts its own reads and writes in its own cache line, and
// a write sets its register's bit in a shared written-register bitmap,
// which costs one load once the bit is set. Totals and WrittenSet read
// the handles and the bitmap when they are called. Any number of
// per-process stacks (see Stack) may share one Meter, and a handle may be
// driven from several goroutines.
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

// Totals is the paper's space measure of one timestamp object (cf. Θ(√n)
// registers one-shot against Θ(n) long-lived), and the measurement behind
// every space experiment (E3, E4, E8, E9): the four numbers every view of
// it carries, from the meter to the SDK, both wires' /metrics and tsload's
// BENCH rows. The JSON keys are the ones those views publish.
type Totals struct {
	// Registers is the allocated array size (the budget).
	Registers int `json:"registers"`
	// Written is the number of distinct registers written at least once —
	// the paper's "used" count that the Θ-bound certificates bound.
	Written int `json:"written"`
	// Reads and Writes are total operation counts.
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
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
	for h := m.handles.Load(); h != nil; h = h.next {
		t.Reads += h.reads.Load()
		t.Writes += h.writes.Load()
	}
	return t
}

// WrittenSet lists the written register indices in increasing order,
// read off the bitmap; it is nil while no register has been written.
func (m *Meter) WrittenSet() []int {
	var set []int
	for i := range m.written {
		for w := m.written[i].Load(); w != 0; w &= w - 1 {
			set = append(set, 64*i+bits.TrailingZeros64(w))
		}
	}
	return set
}
