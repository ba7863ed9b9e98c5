// Package sqrt implements Algorithms 3 and 4 of the paper (§6): a
// wait-free timestamp object for at most M getTS() invocations using
// m = ⌈2√M⌉ multi-writer multi-reader registers. Specialized to one-shot
// use (M = n processes, one call each) it uses ⌈2√n⌉ registers, matching
// the Ω(√n) lower bound of Theorem 1.2 and establishing Theorem 1.3.
//
// Timestamps are pairs (rnd, turn) compared lexicographically (Algorithm
// 3). Registers hold ⊥ or a pair ⟨seq, rnd⟩ where seq is a sequence of
// getTS-ids and rnd a positive integer. The execution proceeds in phases;
// during phase k registers R[1..k−1] are non-⊥ and a getTS either
// invalidates the first register still valid for the phase (returning
// (k, j)) or, finding none, scans and installs R[k], starting phase k+1
// (returning (k+1, 0), possibly without writing if another getTS
// installed R[k] first).
//
// The package follows the paper's one-read-per-iteration reading of lines
// 7–11: a single read of R[j] supplies both the validity test (line 7) and
// the rnd guard (line 10), exactly as Lemma 6.4's proof describes
// ("when getTS(p) fails at iteration j, it reads R[j] (line 10)").
//
// Registers here are 0-based: paper register R[j] is mem index j−1.
package sqrt

import (
	"fmt"
	"math"

	"tsspace/internal/register"
	"tsspace/internal/snapshot"
	"tsspace/internal/timestamp"
)

// ID identifies a getTS instance: the paper's "p.k" (process p's k-th
// invocation). For one-shot objects Seq is always 0 and the ID reduces to
// the process identifier, as §6.1 notes.
type ID struct {
	Pid int
	Seq int
}

// String renders the id as "p.k".
func (id ID) String() string { return fmt.Sprintf("%d.%d", id.Pid, id.Seq) }

// Cell is the non-⊥ register content ⟨seq, rnd⟩: a sequence of getTS-ids
// and a positive integer. Cells are immutable once written.
type Cell struct {
	Seq []ID
	Rnd int
}

// Last returns last(seq), the final element of the id sequence.
func (c *Cell) Last() ID { return c.Seq[len(c.Seq)-1] }

// String renders the cell as ⟨seq, rnd⟩.
func (c *Cell) String() string { return fmt.Sprintf("⟨%v, %d⟩", c.Seq, c.Rnd) }

// RegistersFor returns m = f(M) = ⌈2√M⌉, the register budget Lemma 6.5
// proves sufficient for M getTS() invocations (the last register is a
// sentinel that is read but never written).
func RegistersFor(m int) int {
	return int(math.Ceil(2 * math.Sqrt(float64(m))))
}

// Alg is the Algorithm 4 timestamp object.
type Alg struct {
	maxCalls int
	m        int
	oneShot  bool
	noRepair bool
	tracer   Tracer
}

var _ timestamp.Algorithm = (*Alg)(nil)

func init() {
	timestamp.Register(timestamp.Info{
		Name:    "sqrt",
		Summary: "one-shot object on ⌈2√n⌉ registers (Algorithms 3–4, Theorem 1.3 — space-optimal)",
		New:     func(n int) timestamp.Algorithm { return New(n) },
		OneShot: true,
	})
	timestamp.Register(timestamp.Info{
		Name:    "sqrt-broken-norepair",
		Summary: "Algorithm 4 without the line 10–11 repair (reproduces the §6.1 failure mode)",
		New:     func(n int) timestamp.Algorithm { return NewWithoutRepair(n) },
		Mutant:  true,
	})
}

// New returns the one-shot object for n processes: M = n, one getTS() per
// process, ⌈2√n⌉ registers (Theorem 1.3).
func New(n int) *Alg {
	if n < 1 {
		panic(fmt.Sprintf("sqrt: invalid process count %d", n))
	}
	return &Alg{maxCalls: n, m: RegistersFor(n), oneShot: true}
}

// NewBounded returns the M-bounded long-lived object (§6 header, §7): any
// process may call getTS() repeatedly as long as the total number of
// invocations does not exceed M.
func NewBounded(maxCalls int) *Alg {
	if maxCalls < 1 {
		panic(fmt.Sprintf("sqrt: invalid call budget %d", maxCalls))
	}
	return &Alg{maxCalls: maxCalls, m: RegistersFor(maxCalls), oneShot: false}
}

// SetTracer installs a tracer observing internal events (writes with their
// line numbers, scans with their myrnd). Must be set before any GetTS call;
// nil disables tracing.
func (a *Alg) SetTracer(t Tracer) { a.tracer = t }

// NewWithoutRepair returns a deliberately broken M-bounded variant that
// omits the line 10–11 repair ("getTS(a) overwrites register R[i] with
// ⟨a, k⟩ only when it read rnd_i < k", §6.1). Without the repair, a
// line-15 writer with an out-of-date view can make already-invalidated
// registers valid again, and a later getTS returns a timestamp smaller
// than an earlier completed one — the exact failure mode §6.1 describes.
// It exists so tests can reproduce that execution and show the
// happens-before checker catches it; never use it for real work.
func NewWithoutRepair(maxCalls int) *Alg {
	a := NewBounded(maxCalls)
	a.noRepair = true
	return a
}

// Name implements timestamp.Algorithm.
func (a *Alg) Name() string {
	switch {
	case a.noRepair:
		return "sqrt-broken-norepair"
	case a.oneShot:
		return "sqrt"
	default:
		return "sqrt-bounded"
	}
}

// Registers returns ⌈2√M⌉.
func (a *Alg) Registers() int { return a.m }

// MaxCalls returns the total getTS() budget M.
func (a *Alg) MaxCalls() int { return a.maxCalls }

// OneShot reports whether the object was built with New (one call per
// process) rather than NewBounded.
func (a *Alg) OneShot() bool { return a.oneShot }

// WriterTable returns 0: registers are multi-writer.
func (a *Alg) WriterTable() int { return 0 }

// GetTS is Algorithm 4. Line numbers in comments refer to the paper's
// pseudocode.
func (a *Alg) GetTS(mem register.Mem, pid, seq int) (timestamp.Timestamp, error) {
	if a.oneShot && seq != 0 {
		return timestamp.Timestamp{}, timestamp.ErrOneShot
	}
	if mem.Size() < a.m {
		return timestamp.Timestamp{}, fmt.Errorf("sqrt: memory has %d registers, need %d", mem.Size(), a.m)
	}
	id := ID{Pid: pid, Seq: seq}

	// Lines 1–4: find myrnd, the number of non-⊥ registers, collecting
	// local views r[0..myrnd-1] along the way.
	r := make([]*Cell, a.m)
	j := 0
	for {
		if j >= a.m {
			// The while-loop ran off the array: more than M getTS() calls
			// were issued (Lemma 6.5 guarantees the sentinel R[m] stays ⊥
			// within budget).
			return timestamp.Timestamp{}, timestamp.ErrBudget
		}
		v := mem.Read(j)
		if v == nil {
			break
		}
		r[j] = v.(*Cell)
		j++
	}
	myrnd := j // paper's myrnd; register R[myrnd+1] (paper) is mem index myrnd

	// Lines 5–12: look for the first valid register and invalidate it.
	for jj := 1; jj <= myrnd-1; jj++ { // paper's loop variable j; register index jj-1
		// Line 6: if R[myrnd+1] == ⊥ — re-checked every iteration so a
		// stale getTS wastes at most one timestamp after the phase advances.
		if mem.Read(myrnd) != nil {
			return timestamp.Timestamp{Rnd: int64(myrnd) + 1, Turn: 0}, nil // line 12
		}
		// One read of R[j] serves lines 7 and 10.
		vj, ok := mem.Read(jj - 1).(*Cell)
		if !ok {
			// Registers never return to ⊥ (Claim 6.1(a)); a nil here means
			// the memory was corrupted externally.
			return timestamp.Timestamp{}, fmt.Errorf("sqrt: register %d regressed to ⊥", jj-1)
		}
		if a.validAt(r[myrnd-1], jj, vj) {
			// Line 7 true: R[j] is valid for this phase. Line 8: invalidate
			// it by making last(R[j].seq) differ from r[myrnd].seq[j].
			a.write(mem, 8, id, jj-1, &Cell{Seq: []ID{id}, Rnd: myrnd})
			return timestamp.Timestamp{Rnd: int64(myrnd), Turn: int64(jj)}, nil // line 9
		}
		if vj.Rnd < myrnd && !a.noRepair {
			// Line 10 true: the invalidation is due to an old write from an
			// earlier phase; overwrite (line 11) so R[j] stays invalid for
			// the rest of the phase.
			a.write(mem, 11, id, jj-1, &Cell{Seq: []ID{id}, Rnd: myrnd})
		}
	}

	// Line 13: scan (value-equality double collect, sound because every
	// value written to a register is distinct, Claim 6.1(b); wait-free here
	// because each getTS() writes at most m−1 times, Lemma 6.14).
	view, err := snapshot.Scan(mem)
	if err != nil {
		return timestamp.Timestamp{}, fmt.Errorf("sqrt: %w", err)
	}
	if a.tracer != nil {
		a.tracer.OnScan(ScanEvent{Pid: pid, Seq: seq, MyRnd: myrnd})
	}
	// Line 14: if r[myrnd+1] == ⊥ in the scanned view.
	if view[myrnd] == nil {
		// Line 15: install R[myrnd+1] = ⟨(last(r[1].seq), …,
		// last(r[myrnd].seq), ID), myrnd+1⟩, starting phase myrnd+1.
		seqs := make([]ID, 0, myrnd+1)
		for k := 0; k < myrnd; k++ {
			c, ok := view[k].(*Cell)
			if !ok {
				return timestamp.Timestamp{}, fmt.Errorf("sqrt: scanned register %d regressed to ⊥", k)
			}
			seqs = append(seqs, c.Last())
		}
		seqs = append(seqs, id)
		a.write(mem, 15, id, myrnd, &Cell{Seq: seqs, Rnd: myrnd + 1})
	}
	return timestamp.Timestamp{Rnd: int64(myrnd) + 1, Turn: 0}, nil // line 16
}

// validAt evaluates line 7: r[myrnd].seq[j] == last(R[j].seq), where rm is
// the local view of R[myrnd] and jj the paper's 1-based j. A short seq
// (defensively impossible while the phase invariant holds) counts as
// invalid.
func (a *Alg) validAt(rm *Cell, jj int, vj *Cell) bool {
	if rm == nil || jj > len(rm.Seq) {
		return false
	}
	return rm.Seq[jj-1] == vj.Last()
}

func (a *Alg) write(mem register.Mem, line int, id ID, reg int, c *Cell) {
	mem.Write(reg, c)
	if a.tracer != nil {
		a.tracer.OnWrite(WriteEvent{Line: line, Pid: id.Pid, Seq: id.Seq, Reg: reg, Rnd: c.Rnd})
	}
}
