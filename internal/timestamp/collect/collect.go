// Package collect implements the classic long-lived wait-free unbounded
// timestamp object from n single-writer registers: getTS() collects all
// registers, takes the maximum plus one, writes it to the caller's own
// register, and returns it; compare is integer order.
//
// This is the Θ(n)-space upper-bound family the paper's Theorem 1.1 is
// matched against (Ellen, Fatourou and Ruppert's refinement brings it to
// n−1 registers using a dense timestamp universe; see the sibling package
// dense). The timestamps are static and drawn from ℕ, a nowhere dense set,
// so by Ellen et al. n registers are also necessary for this variant —
// making collect exactly optimal in its class.
package collect

import (
	"fmt"

	"tsspace/internal/register"
	"tsspace/internal/timestamp"
)

// Alg is the n-register long-lived collect algorithm.
type Alg struct {
	n int
}

var _ timestamp.Algorithm = (*Alg)(nil)

func init() {
	timestamp.Register(timestamp.Info{
		Name:         "collect",
		Summary:      "long-lived collect over n single-writer registers (Θ(n), exactly optimal for static timestamps)",
		New:          func(n int) timestamp.Algorithm { return New(n) },
		ExploreCalls: 2, // the long-lived guarantees only bite on repeated calls
	})
}

// New returns a collect timestamp object for n processes.
func New(n int) *Alg {
	if n < 1 {
		panic(fmt.Sprintf("collect: invalid process count %d", n))
	}
	return &Alg{n: n}
}

// Name implements timestamp.Algorithm.
func (a *Alg) Name() string { return "collect" }

// Registers returns n: one single-writer register per process.
func (a *Alg) Registers() int { return a.n }

// OneShot reports false: the object is long-lived.
func (a *Alg) OneShot() bool { return false }

// WriterTable declares the single-writer discipline: register i is written
// only by process i.
func (a *Alg) WriterTable() [][]int { return register.SWMRTable(a.n) }

// GetTS collects all registers, writes max+1 to the caller's register and
// returns it.
//
// Correctness: register values are per-process maxima and thus monotone
// non-decreasing. If g1 → g2, then g2's collect starts after g1's write of
// t1, so g2 observes max ≥ t1 and returns t2 ≥ t1+1 > t1.
func (a *Alg) GetTS(mem register.Mem, pid, seq int) (timestamp.Timestamp, error) {
	if pid < 0 || pid >= a.n {
		return timestamp.Timestamp{}, fmt.Errorf("collect: pid %d out of range [0,%d)", pid, a.n)
	}
	ts := mem.MaxInt64(a.n) + 1
	mem.WriteInt64(pid, ts)
	return timestamp.Timestamp{Rnd: ts}, nil
}

// ScalarValued reports that every register value is an int64, so
// timestamp.NewMem backs the object with a register.Int64Array.
func (a *Alg) ScalarValued() bool { return true }
