// Package register models the shared-memory substrate of the paper: an
// asynchronous system of n processes communicating only through
// multi-writer multi-reader atomic registers, each initialized to ⊥
// (represented as a nil Value).
//
// Algorithms are written against the Mem interface so that identical
// algorithm code runs in two worlds:
//
//   - real concurrency on hardware atomics (goroutines + sync/atomic),
//     used for wait-freedom validation, throughput benches and the SDK:
//     AtomicArray holds boxed values, Int64Array one-word scalars;
//   - the deterministic step scheduler in internal/sched, used to replay
//     adversarial schedules, block writes and covering configurations from
//     the lower-bound proofs.
//
// Mem has one scalar pair beside the generic Read and Write: a collect,
// MaxInt64, and WriteInt64. The scalar algorithms (collect, dense and
// their mutants, simple's increment) use it on every memory. Int64Array
// runs the collect as one pass over its words; every memory that stores
// boxed values runs it as m generic reads through CollectMax, so a
// scheduler step or an operation count stays one per register read.
//
// Cross-cutting concerns — metering, write discipline, first-operation
// stamping — are middleware layers composed over any memory with Wrap.
//
// Written values must be treated as immutable: a Write publishes the value
// to concurrent readers, and mutating it afterwards is a data race in the
// atomic world and a model violation in the simulated world.
package register

import (
	"fmt"
	"sync/atomic"
)

// Value is the content of a register. nil represents ⊥, the initial value.
// Values are treated as immutable once written.
type Value = any

// Mem is an array of atomic registers indexed from 0 to Size()-1.
//
// In the simulated world each process holds its own Mem handle (operations
// are attributed to that process and gated by the scheduler); in the atomic
// world all processes may share a single handle.
type Mem interface {
	// Read returns the current value of register i (nil if ⊥).
	Read(i int) Value
	// Write atomically replaces the value of register i.
	Write(i int, v Value)
	// MaxInt64 reads registers 0..m−1 in index order, one atomic read
	// each — the m reads of the paper's collect — and returns the largest
	// value read, or 0 when all of them are ⊥. Every register it reads
	// must hold an int64 or ⊥. How the values read are folded into the
	// maximum is the implementation's choice (Int64Array keeps four
	// running maxima); the order of the reads is not.
	MaxInt64(m int) int64
	// WriteInt64 atomically replaces the value of register i with v, as
	// Write(i, v) does.
	WriteInt64(i int, v int64)
	// Size returns the number of registers.
	Size() int
}

// CollectMax is MaxInt64 for a memory that stores boxed values: m generic
// Reads of registers 0..m−1 in index order, each of which must return an
// int64 or ⊥, folded into their maximum (0 when all are ⊥).
func CollectMax(mem Mem, m int) int64 {
	var max int64
	for i := 0; i < m; i++ {
		if v := mem.Read(i); v != nil {
			if x := v.(int64); x > max {
				max = x
			}
		}
	}
	return max
}

// AtomicArray is a wait-free multi-writer multi-reader register array backed
// by sync/atomic pointers: each register points at an immutable boxed
// value, swapped in by a single atomic store. The zero value is unusable;
// construct with NewAtomicArray.
type AtomicArray struct {
	cells []atomic.Pointer[Value]
}

var _ Mem = (*AtomicArray)(nil)

// NewAtomicArray returns an array of m registers, all initialized to ⊥.
func NewAtomicArray(m int) *AtomicArray {
	if m < 0 {
		panic(fmt.Sprintf("register: negative size %d", m))
	}
	return &AtomicArray{cells: make([]atomic.Pointer[Value], m)}
}

// Size returns the number of registers.
func (a *AtomicArray) Size() int { return len(a.cells) }

// Read returns the current value of register i.
func (a *AtomicArray) Read(i int) Value {
	if p := a.cells[i].Load(); p != nil {
		return *p
	}
	return nil
}

// Write atomically replaces the value of register i with one atomic store
// of a fresh box; concurrent writes linearize in the order of their stores.
func (a *AtomicArray) Write(i int, v Value) {
	a.cells[i].Store(&v)
}

// MaxInt64 collects registers 0..m−1 with m Reads.
func (a *AtomicArray) MaxInt64(m int) int64 { return CollectMax(a, m) }

// WriteInt64 boxes v and writes it.
func (a *AtomicArray) WriteInt64(i int, v int64) { a.Write(i, v) }
