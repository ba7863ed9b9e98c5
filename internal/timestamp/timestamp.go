// Package timestamp defines the unbounded timestamp object of the paper
// (§2) and the harness that runs implementations both on real hardware
// atomics and under the deterministic scheduler.
//
// An unbounded timestamp object supports two methods: getTS(), which
// returns a timestamp without input, and compare(t1, t2). The single
// correctness requirement is the happens-before property: if a getTS()
// instance g1 returning t1 completes before another instance g2 returning
// t2 is invoked, then compare(t1, t2) = true and compare(t2, t1) = false.
// compare reads no register, and every implementation here shares one:
// Less.
//
// A timestamp object is one-shot if each process may invoke getTS() at most
// once, and long-lived otherwise. The paper proves a space gap between the
// two: Θ(√n) registers suffice (and are necessary) for one-shot objects,
// while Θ(n) registers are necessary for long-lived ones.
package timestamp

import (
	"errors"
	"fmt"

	"tsspace/internal/register"
)

// Timestamp is an element of the timestamp universe T = ℕ × (ℕ ∪ {0})
// ordered lexicographically, as used by Algorithm 3. Scalar-valued
// algorithms (Algorithms 1–2, the collect baseline) embed their integer
// timestamps as (value, 0).
type Timestamp struct {
	Rnd  int64
	Turn int64
}

// Less is the lexicographic order on timestamps (Algorithm 3):
// (rnd1, turn1) < (rnd2, turn2) iff rnd1 < rnd2, or rnd1 = rnd2 and
// turn1 < turn2. It is compare(t1, t2) of every implementation; on the
// scalar ones' (value, 0) timestamps it orders by value.
func Less(a, b Timestamp) bool {
	return a.Rnd < b.Rnd || (a.Rnd == b.Rnd && a.Turn < b.Turn)
}

// String renders a timestamp as "(rnd, turn)".
func (t Timestamp) String() string { return fmt.Sprintf("(%d, %d)", t.Rnd, t.Turn) }

// Errors shared by implementations.
var (
	// ErrOneShot is returned when a process calls getTS() more than once on
	// a one-shot object.
	ErrOneShot = errors.New("timestamp: getTS called more than once by a one-shot process")
	// ErrBudget is returned when an M-bounded object receives more than M
	// getTS() calls in total.
	ErrBudget = errors.New("timestamp: getTS call budget exhausted")
)

// Algorithm is a timestamp implementation. Implementations are pure
// against register.Mem: all shared state lives in the registers, and all
// per-process persistent state is derived from (pid, seq), so the same
// code runs on the arrays NewMem allocates (real concurrency) and under
// internal/sched (deterministic simulation). The scalar algorithms
// collect with Mem.MaxInt64 and write with Mem.WriteInt64 on every
// memory; there is one GetTS body per algorithm.
type Algorithm interface {
	// Name identifies the implementation in reports.
	Name() string
	// Registers returns the number of registers the implementation needs;
	// the Mem passed to GetTS must have at least this size.
	Registers() int
	// OneShot reports whether each process may call GetTS at most once.
	OneShot() bool
	// GetTS performs one getTS() instance for process pid. seq is the
	// number of previous GetTS calls by this process (0 for the first);
	// callers must maintain it faithfully, as one-shot implementations
	// reject seq > 0 and the dense baseline derives state from it.
	GetTS(mem register.Mem, pid, seq int) (Timestamp, error)
	// WriterTable returns the register write-permission discipline the
	// implementation claims (nil entries or a nil table permit anyone);
	// harnesses enforce it to validate claims such as Algorithm 2's
	// 2-writer registers.
	WriterTable() [][]int
}

// ScalarValued is an optional capability probe, in the style of Simulable:
// an algorithm whose register values are all int64 scalars (collect,
// dense, simple) reports it, and NewMem then backs it with a
// register.Int64Array, one atomic word per register, on which a getTS
// allocates nothing.
type ScalarValued interface {
	ScalarValued() bool
}

// NewMem allocates the atomic register array for alg: a
// register.Int64Array when alg is ScalarValued, a register.AtomicArray of
// boxed values otherwise. It is the one place an algorithm's array is
// chosen; the SDK, the engine's atomic world and the tests all call it.
func NewMem(alg Algorithm) register.Mem {
	if sv, ok := alg.(ScalarValued); ok && sv.ScalarValued() {
		return register.NewInt64Array(alg.Registers())
	}
	return register.NewAtomicArray(alg.Registers())
}

// CheckStrictlyIncreasing verifies that each adjacent pair of timestamps
// is ordered by Less — the shape every sequential execution must produce,
// since consecutive sequential calls are happens-before ordered.
func CheckStrictlyIncreasing(ts []Timestamp) error {
	for i := 1; i < len(ts); i++ {
		if !Less(ts[i-1], ts[i]) {
			return fmt.Errorf("timestamp %d: compare(%v, %v) = false, want true", i, ts[i-1], ts[i])
		}
	}
	return nil
}
