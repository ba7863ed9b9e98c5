package register

import (
	"fmt"
	"sync/atomic"
)

// Int64Array is a wait-free MWMR register array specialized for int64
// values: one machine word per register, so each read is a single atomic
// load and a write a single atomic store — no boxing, no allocation. A
// collect (MaxInt64) is one pass of loads over the words in index order,
// folded into four running maxima, one per lane of a group of four words.
// The generic Read/Write operations interoperate with the scalar ones on
// the same storage (a generic Write must carry an int64). It backs every
// algorithm whose register values are all int64 scalars.
type Int64Array struct {
	words []atomic.Uint64
}

var _ Mem = (*Int64Array)(nil)

// NewInt64Array returns an array of m scalar registers, all initialized
// to ⊥.
func NewInt64Array(m int) *Int64Array {
	if m < 0 {
		panic(fmt.Sprintf("register: negative size %d", m))
	}
	return &Int64Array{words: make([]atomic.Uint64, m)}
}

// packInt64 encodes v so that the zero word keeps meaning ⊥. The +1
// shift only distinguishes ⊥ for non-negative values (-1 would wrap to
// the ⊥ word and silently read back as unset), so negative values are
// rejected loudly — scalar register values are timestamps, which are
// non-negative by construction.
func packInt64(v int64) uint64 {
	if v < 0 {
		//tslint:allow hotpath panic formatting on an invariant violation; unreachable for real timestamps
		panic(fmt.Sprintf("register: scalar arrays hold non-negative timestamps, got %d", v))
	}
	return uint64(v) + 1
}

func unpackInt64(w uint64) (int64, bool) {
	if w == 0 {
		return 0, false
	}
	return int64(w - 1), true
}

// Size returns the number of registers.
func (a *Int64Array) Size() int { return len(a.words) }

// MaxInt64 loads registers 0..m−1 in index order and returns the largest
// value, 0 when all are ⊥. A ⊥ word is 0 and every other word is its value
// plus one, so the maximum word decodes to the maximum value.
//
// The words go four at a time into four running maxima, one per lane, so
// no compare waits on the one before it in its group; a tail loop covers
// the last m mod 4. The lanes only change how the words read are folded:
// the loads are still issued one at a time in index order.
//
//tslint:hotpath
func (a *Int64Array) MaxInt64(m int) int64 {
	words := a.words[:m]
	var m0, m1, m2, m3 uint64
	for len(words) >= 4 {
		m0 = max(m0, words[0].Load())
		m1 = max(m1, words[1].Load())
		m2 = max(m2, words[2].Load())
		m3 = max(m3, words[3].Load())
		words = words[4:]
	}
	for i := range words {
		m0 = max(m0, words[i].Load())
	}
	v, _ := unpackInt64(max(m0, m1, m2, m3))
	return v
}

// WriteInt64 atomically replaces the value of register i without
// allocating.
//
//tslint:hotpath
func (a *Int64Array) WriteInt64(i int, v int64) {
	a.words[i].Store(packInt64(v))
}

// Read returns the current value of register i boxed as a Value (nil
// for ⊥). Boxing an int64 below 256 does not allocate, so simple's
// register-by-register reads (values 0–2) stay allocation-free; a
// collect uses MaxInt64.
func (a *Int64Array) Read(i int) Value {
	v, ok := unpackInt64(a.words[i].Load())
	if !ok {
		return nil
	}
	return v
}

// Write replaces register i; v must be an int64 (the array is
// scalar-specialized, and a silent widening would corrupt the store).
func (a *Int64Array) Write(i int, v Value) {
	x, ok := v.(int64)
	if !ok {
		panic(fmt.Sprintf("register: Int64Array.Write(%d, %T): scalar arrays hold int64 values only", i, v))
	}
	a.WriteInt64(i, x)
}
