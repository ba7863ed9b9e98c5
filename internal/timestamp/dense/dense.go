// Package dense implements a long-lived wait-free unbounded timestamp
// object for n processes from n−1 registers.
//
// The paper notes (§4, citing Ellen, Fatourou and Ruppert) that "if the
// timestamps are not required to come from a nowhere dense set, then n−1
// registers suffice". This package realizes that remark: the timestamp
// universe is ℕ × ℕ ordered lexicographically, which is dense in the
// required sense — between (v, 0) and (v+1, 0) lie infinitely many
// timestamps (v, 1), (v, 2), …
//
// Processes 0..n−2 behave exactly like the collect algorithm on registers
// 0..n−2 and return "integer" timestamps (max+1, 0). The designated process
// n−1 owns no register and never writes: it collects, observes maximum v,
// and returns (v, c) where c ≥ 1 is its invocation count — morally "v plus
// c infinitesimals". Density is what makes a timestamp strictly between all
// previously issued ones (≤ (v,0)) and all future writers' ones (≥ (v+1,0))
// available without announcing anything in shared memory.
//
// Exactly one process may be a non-writer: two silent processes cannot
// order their own calls against each other (their timestamps are built from
// the same collected maximum). TwoSilent exhibits this broken variant; the
// test suite shows hbcheck catches it, matching the paper's claim that n−1
// is where this trick stops.
package dense

import (
	"fmt"

	"tsspace/internal/register"
	"tsspace/internal/timestamp"
)

// Alg is the (n−1)-register long-lived dense-universe algorithm.
type Alg struct {
	n int
	// silent is the number of designated non-writing processes. 1 is
	// correct; 2 exists only to demonstrate the impossibility (TwoSilent).
	silent int
}

var _ timestamp.Algorithm = (*Alg)(nil)

func init() {
	timestamp.Register(timestamp.Info{
		Name:         "dense",
		Summary:      "long-lived collect variant on n−1 registers via a dense timestamp universe (Ellen–Fatourou–Ruppert)",
		New:          func(n int) timestamp.Algorithm { return New(n) },
		MinProcs:     2,
		ExploreCalls: 2,
	})
	timestamp.Register(timestamp.Info{
		Name:         "dense-two-silent",
		Summary:      "broken n−2-register dense variant with two silent processes (demonstrates where the trick stops)",
		New:          func(n int) timestamp.Algorithm { return TwoSilent(n) },
		MinProcs:     3,
		ExploreCalls: 2,
		Mutant:       true,
	})
}

// New returns a dense timestamp object for n ≥ 2 processes using n−1
// registers.
func New(n int) *Alg {
	if n < 2 {
		panic(fmt.Sprintf("dense: need n ≥ 2 processes, got %d", n))
	}
	return &Alg{n: n, silent: 1}
}

// TwoSilent returns the deliberately broken n−2-register variant with two
// non-writing processes, used in tests to demonstrate that the dense-
// universe trick does not extend below n−1 registers.
func TwoSilent(n int) *Alg {
	if n < 3 {
		panic(fmt.Sprintf("dense: TwoSilent needs n ≥ 3 processes, got %d", n))
	}
	return &Alg{n: n, silent: 2}
}

// Name implements timestamp.Algorithm.
func (a *Alg) Name() string {
	if a.silent == 2 {
		return "dense-broken-2silent"
	}
	return "dense"
}

// Registers returns n−1 (n−2 for the broken variant): one per writer.
func (a *Alg) Registers() int { return a.n - a.silent }

// OneShot reports false: the object is long-lived.
func (a *Alg) OneShot() bool { return false }

// WriterTable declares the single-writer discipline on the writer
// registers: register i is written only by process i, so a silent
// process, whose pid is past the last register, writes none.
func (a *Alg) WriterTable() int { return 1 }

// GetTS returns (max+1, 0) for writers after publishing max+1, and
// (max, seq+1) for the silent process(es), which never write.
func (a *Alg) GetTS(mem register.Mem, pid, seq int) (timestamp.Timestamp, error) {
	if pid < 0 || pid >= a.n {
		return timestamp.Timestamp{}, fmt.Errorf("dense: pid %d out of range [0,%d)", pid, a.n)
	}
	m := a.n - a.silent
	max := mem.MaxInt64(m)
	if pid >= m {
		// Silent process: return max "plus seq+1 infinitesimals". Its calls
		// are self-ordered by the local invocation count, ordered after all
		// writers it observed (their timestamps are ≤ (max, 0)), and before
		// any later writer (which observes ≥ max and returns ≥ (max+1, 0)).
		return timestamp.Timestamp{Rnd: max, Turn: int64(seq) + 1}, nil
	}
	ts := max + 1
	mem.WriteInt64(pid, ts)
	return timestamp.Timestamp{Rnd: ts}, nil
}

// ScalarValued reports that every register value is an int64, so
// timestamp.NewMem backs the object with a register.Int64Array.
func (a *Alg) ScalarValued() bool { return true }
