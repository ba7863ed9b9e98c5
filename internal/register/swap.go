package register

import (
	"fmt"
	"sync"
)

// SwapArray is an array of historyless fetch-and-store (swap) objects.
//
// §7 of the paper remarks that the one-shot lower bound (Theorem 1.2)
// "applies without change if each register is replaced by any historyless
// object": in the constructed execution every block-writing process takes
// no further steps, so the value it deposits never depends on the state it
// overwrote. A swap object is the canonical non-trivial historyless
// primitive — its write returns the old value, but the new state is
// exactly the written value.
//
// The package timestamp/fas builds a long-lived timestamp object from a
// single swap object, showing the long-lived Ω(n) register bound does not
// carry over to primitives whose writes return the old value — which is
// why the paper's long-lived question for historyless objects (open in §7)
// is about the write-oblivious register model specifically.
type SwapArray struct {
	mu    sync.Mutex
	cells []Value
	swaps uint64
}

// NewSwapArray returns m swap objects, all ⊥.
func NewSwapArray(m int) *SwapArray {
	if m < 0 {
		panic(fmt.Sprintf("register: negative size %d", m))
	}
	return &SwapArray{cells: make([]Value, m)}
}

// Size returns the number of objects.
func (a *SwapArray) Size() int { return len(a.cells) }

// Read returns the current value of object i.
func (a *SwapArray) Read(i int) Value {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cells[i]
}

// Write stores v into object i, discarding the old value (a swap whose
// return value is ignored — the register special case).
func (a *SwapArray) Write(i int, v Value) {
	a.Swap(i, v)
}

// Swap atomically stores v into object i and returns the previous value.
func (a *SwapArray) Swap(i int, v Value) Value {
	a.mu.Lock()
	defer a.mu.Unlock()
	old := a.cells[i]
	a.cells[i] = v
	a.swaps++
	return old
}

// Swaps returns the total number of swap (and write) operations applied.
func (a *SwapArray) Swaps() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.swaps
}
