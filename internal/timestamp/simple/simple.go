// Package simple implements Algorithms 1 and 2 of the paper (§5): a
// wait-free one-shot timestamp object for n processes from ⌈n/2⌉
// multi-reader/2-writer registers, each holding a value in {0, 1, 2} and
// initialized to 0. Register i is shared by processes 2i and 2i+1
// (0-based), its two permitted writers.
//
// simple-getTS() by process p reads each register in sequence; at p's own
// register it first increments it (read, then write read+1); the returned
// timestamp is the sum of all values read. simple-compare(t1, t2) is
// t1 < t2.
//
// Correctness (Lemma 5.1): a process writes 2 only if it observed 1, which
// — the object being one-shot — must have been written by its partner, so
// register values never decrease, sums never decrease, and a later getTS()
// additionally accounts for its own increment, making its sum strictly
// larger than any getTS() that happened before it.
//
// The algorithm is interesting "only because of its simplicity" (§5): it
// beats the long-lived lower bound of Theorem 1.1 with a trivially linear
// but halved register count, and is strictly dominated by the Θ(√n)
// algorithm of §6 (package sqrt).
package simple

import (
	"fmt"

	"tsspace/internal/register"
	"tsspace/internal/timestamp"
)

// Alg is Algorithms 1–2: the ⌈n/2⌉-register one-shot object.
type Alg struct {
	n int
}

var _ timestamp.Algorithm = (*Alg)(nil)

func init() {
	timestamp.Register(timestamp.Info{
		Name:    "simple",
		Summary: "one-shot object on ⌈n/2⌉ two-writer registers (Algorithms 1–2, §5)",
		New:     func(n int) timestamp.Algorithm { return New(n) },
		OneShot: true,
	})
}

// New returns a simple one-shot timestamp object for n processes.
func New(n int) *Alg {
	if n < 1 {
		panic(fmt.Sprintf("simple: invalid process count %d", n))
	}
	return &Alg{n: n}
}

// Name implements timestamp.Algorithm.
func (a *Alg) Name() string { return "simple" }

// Registers returns ⌈n/2⌉.
func (a *Alg) Registers() int { return (a.n + 1) / 2 }

// OneShot reports true: each process may call GetTS at most once.
func (a *Alg) OneShot() bool { return true }

// WriterTable declares Algorithm 2's discipline: register i is written by
// processes 2i and 2i+1 only.
func (a *Alg) WriterTable() [][]int { return register.TwoWriterTable(a.n) }

// GetTS is simple-getTS (Algorithm 2). Registers hold int64 values; the
// initial ⊥ (nil) reads as 0, matching the paper's 0-initialized
// registers without performing initializing writes. It sums the
// registers instead of taking their maximum, so it reads them one by one
// with the generic Read; its increment is a WriteInt64.
func (a *Alg) GetTS(mem register.Mem, pid, seq int) (timestamp.Timestamp, error) {
	if pid < 0 || pid >= a.n {
		return timestamp.Timestamp{}, fmt.Errorf("simple: pid %d out of range [0,%d)", pid, a.n)
	}
	if seq != 0 {
		return timestamp.Timestamp{}, timestamp.ErrOneShot
	}
	mine := pid / 2
	var sum int64
	for i := 0; i < a.Registers(); i++ {
		if i == mine {
			// R[i] := R[i] + 1 — one read and one write in the register
			// model.
			mem.WriteInt64(i, readVal(mem, i)+1)
		}
		// sum := sum + R[i]: the paper re-reads the register, so the sum may
		// account for a partner's concurrent increment; monotonicity is
		// preserved either way.
		sum += readVal(mem, i)
	}
	return timestamp.Timestamp{Rnd: sum}, nil
}

func readVal(mem register.Mem, i int) int64 {
	v := mem.Read(i)
	if v == nil {
		return 0
	}
	return v.(int64)
}

// ScalarValued reports that every register value is an int64, so
// timestamp.NewMem backs the object with a register.Int64Array.
func (a *Alg) ScalarValued() bool { return true }
