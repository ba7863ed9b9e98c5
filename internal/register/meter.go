package register

import (
	"sort"
	"sync"
)

// SpaceReport summarizes the register footprint of an execution: it is the
// measurement backing every space experiment (E3, E4, E8, E9). The paper
// counts a register as "used" once it can be written; we report both the
// written set and the read set so the sentinel register of Algorithm 4
// (always read, never written — Lemma 6.14) is visible.
type SpaceReport struct {
	// Registers is the size of the underlying array (the allocation budget).
	Registers int
	// Written is the number of distinct registers written at least once.
	Written int
	// WrittenSet lists the written register indices in increasing order.
	WrittenSet []int
	// MaxWrittenIndex is the largest written index, or -1 if none.
	MaxWrittenIndex int
	// MaxReadIndex is the largest index read, or -1 if none.
	MaxReadIndex int
	// Reads and Writes are total operation counts.
	Reads, Writes uint64
	// ReadCounts and WriteCounts are per-register operation counts, indexed
	// by register (length Registers).
	ReadCounts, WriteCounts []uint64
}

// Meter collects the operation counts of every Metered layer built over
// it. It is safe for concurrent use; any number of per-process stacks may
// share one Meter.
type Meter struct {
	size int

	mu       sync.Mutex
	readCnt  []uint64
	writeCnt []uint64
	maxRead  int
	maxWrite int
	written  int // distinct registers written, kept incrementally for Totals
	reads    uint64
	writes   uint64
}

// NewMeterSize returns a meter for size registers, fed through the Metered
// middleware.
func NewMeterSize(size int) *Meter {
	return &Meter{
		size:     size,
		readCnt:  make([]uint64, size),
		writeCnt: make([]uint64, size),
		maxRead:  -1,
		maxWrite: -1,
	}
}

func (m *Meter) recordRead(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readCnt[i]++
	m.reads++
	if i > m.maxRead {
		m.maxRead = i
	}
}

func (m *Meter) recordWrite(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeCnt[i]++
	if m.writeCnt[i] == 1 {
		m.written++
	}
	m.writes++
	if i > m.maxWrite {
		m.maxWrite = i
	}
}

// Report returns the current space report.
func (m *Meter) Report() SpaceReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := SpaceReport{
		Registers:       m.size,
		MaxWrittenIndex: m.maxWrite,
		MaxReadIndex:    m.maxRead,
		Reads:           m.reads,
		Writes:          m.writes,
		ReadCounts:      append([]uint64(nil), m.readCnt...),
		WriteCounts:     append([]uint64(nil), m.writeCnt...),
	}
	for i, c := range m.writeCnt {
		if c > 0 {
			r.Written++
			r.WrittenSet = append(r.WrittenSet, i)
		}
	}
	sort.Ints(r.WrittenSet)
	return r
}

// Totals is the scrape-cheap slice of a SpaceReport: the four scalar
// space measures, with no per-register slices copied.
type Totals struct {
	// Registers is the allocated array size (the budget).
	Registers int
	// Written is the number of distinct registers written at least once —
	// the paper's "used" count that the Θ-bound certificates bound.
	Written int
	// Reads and Writes are total operation counts.
	Reads, Writes uint64
}

// Totals returns the scalar space measures without copying the
// per-register count slices, cheap enough to sample on every metrics
// scrape of a live daemon.
func (m *Meter) Totals() Totals {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Totals{Registers: m.size, Written: m.written, Reads: m.reads, Writes: m.writes}
}
