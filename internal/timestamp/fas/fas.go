// Package fas implements a long-lived unbounded timestamp object from a
// SINGLE fetch-and-store (swap) object.
//
// getTS() swaps a fresh node into the object; the displaced node is the
// caller's immediate predecessor in the linearization order of swaps, and
// the returned timestamp is predecessor.depth + 1 — a perfect counter.
//
// Why this package exists in a reproduction about registers: §7 of the
// paper notes the one-shot lower bound (Theorem 1.2) extends to historyless
// objects — in the constructed execution, block-writing processes take no
// further steps, so the swap's return value is never used. The long-lived
// historyless question is left open. This construction shows what the swap
// return value buys when it IS used: the long-lived space requirement
// collapses from Ω(n) registers (Theorem 1.1) to one object. The register
// lower bound is precisely charging for information a writer destroys
// without observing.
//
// Progress: the object is non-blocking for the system, but an individual
// getTS() may wait for its immediate predecessor to publish its depth (the
// window between the predecessor's swap and its depth store). Under the
// deterministic scheduler this wait can deadlock a gated process, so fas
// is exercised on real goroutines only.
package fas

import (
	"fmt"
	"runtime"
	"sync/atomic" //tslint:allow registeraccess swap-chain nodes hand off through a raw atomic pointer; fas runs on real goroutines only, outside the deterministic scheduler (see package doc)

	"tsspace/internal/register"
	"tsspace/internal/timestamp"
)

// node is one getTS() installment in the swap chain.
type node struct {
	depth atomic.Int64 // 0 until published by its creator
}

// Alg is the single-swap-object timestamp algorithm.
type Alg struct {
	swap *register.SwapArray
}

var _ timestamp.Algorithm = (*Alg)(nil)

func init() {
	timestamp.Register(timestamp.Info{
		Name:         "fas",
		Summary:      "long-lived counter from a single fetch-and-store object (§7 contrast; atomic world only)",
		New:          func(n int) timestamp.Algorithm { return New(n) },
		ExploreCalls: 2,
	})
}

// New returns a fetch-and-store timestamp object. It is long-lived and
// supports any number of processes; n is accepted for interface symmetry
// but unused.
func New(n int) *Alg {
	if n < 1 {
		panic(fmt.Sprintf("fas: invalid process count %d", n))
	}
	return &Alg{swap: register.NewSwapArray(1)}
}

// Name implements timestamp.Algorithm.
func (a *Alg) Name() string { return "fas" }

// Registers returns 1: the single swap object. (The harness allocates a
// register.Mem of this size, but GetTS uses the internal swap object — the
// register abstraction cannot express fetch-and-store.)
func (a *Alg) Registers() int { return 1 }

// OneShot reports false: the object is long-lived.
func (a *Alg) OneShot() bool { return false }

// Simulable reports false: getTS performs no gated register operations and
// busy-waits on its predecessor's depth store, so the deterministic
// scheduler can neither observe nor fairly schedule it (see the package
// comment). Harnesses — the engine's Exhaustive/Fuzz modes in particular —
// exercise fas on real goroutines instead.
func (a *Alg) Simulable() bool { return false }

// WriterTable returns nil: the object is multi-writer.
func (a *Alg) WriterTable() [][]int { return nil }

// GetTS swaps in a new node and returns its depth: one shared swap per
// call. mem is ignored — swap is strictly stronger than the register
// interface.
func (a *Alg) GetTS(_ register.Mem, pid, seq int) (timestamp.Timestamp, error) {
	n := &node{}
	prev := a.swap.Swap(0, n)
	var d int64 = 1
	if prev != nil {
		p := prev.(*node)
		// Wait for the predecessor to publish its depth. The wait is
		// bounded by the predecessor's single store; see the package
		// comment for the progress discussion.
		for {
			if pd := p.depth.Load(); pd > 0 {
				d = pd + 1
				break
			}
			runtime.Gosched()
		}
	}
	n.depth.Store(d)
	return timestamp.Timestamp{Rnd: d}, nil
}
