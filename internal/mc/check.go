package mc

import (
	"fmt"

	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
)

// Call locates one completed getTS() instance inside an execution: the
// process that performed it, its per-process invocation number, the
// per-process ordinals (0-based, counting only that process's operations)
// of its first and last register operation, and the timestamp it returned.
// A call that performed no operations carries First = Last = -1 and is
// exempt from ordering obligations (it can be linearized anywhere).
type Call struct {
	Pid, Seq    int
	First, Last int
	Val         timestamp.Timestamp
}

// Violation is a pair of calls for which some real execution equivalent to
// the visited one orders First entirely before Second while their
// timestamps do not order First before Second.
type Violation struct {
	First, Second Call
}

// Error renders the violation with both directions of compare.
func (v Violation) Error() string {
	t1, t2 := v.First.Val, v.Second.Val
	return fmt.Sprintf(
		"mc: p%d.getTS#%d can happen before p%d.getTS#%d but compare(%v, %v) = %v and compare(%v, %v) = %v",
		v.First.Pid, v.First.Seq, v.Second.Pid, v.Second.Seq,
		t1, t2, timestamp.Less(t1, t2),
		t2, t1, timestamp.Less(t2, t1),
	)
}

// CausalCheck verifies the timestamp happens-before specification over the
// entire Mazurkiewicz equivalence class of the executed trace, not just
// the one interleaving that was run. n is the process count, trace the
// executed operations, calls the completed getTS instances.
//
// It computes conflict-based vector clocks over the trace (program order
// plus, per register, write→read, write→write and read→write edges) and
// from them decides, for every ordered pair of calls (g1, g2), whether
// some dependency-preserving reordering of the trace — an equally real
// execution returning the same timestamps — runs g1 to completion before
// g2 begins. Whenever that is realizable the specification demands
// compare(t1, t2) ∧ ¬compare(t2, t1), that is timestamp.Less(t1, t2).
//
// The check subsumes hbcheck.Check on the visited interleaving (the
// identity reordering is realizable) and extends it to every execution a
// partial-order-reduced exploration prunes, which is exactly what makes
// pruning sound: a property violation anywhere in the class is caught on
// the class representative.
func CausalCheck(n int, trace []sched.Op, calls []Call) error {
	return CausalCheckBarriers(n, trace, calls, nil)
}

// Barrier injects a causal edge the registers cannot express: every
// operation of process After happens after trace operation Before (a global
// trace index). It models crash-recovery hand-off — a recovery incarnation
// starts only after its predecessor's crash, so no reordering may move its
// operations before the predecessor's last executed operation, even when no
// register conflict forces that order. A Before of -1 (predecessor executed
// nothing observable) is no constraint.
type Barrier struct {
	Before int
	After  int
}

// CausalCheckBarriers is CausalCheck over a trace whose causality includes
// explicit barriers in addition to the conflict edges.
func CausalCheckBarriers(n int, trace []sched.Op, calls []Call, barriers []Barrier) error {
	c, err := analyzeBarriers(n, trace, barriers)
	if err != nil {
		return err
	}
	for i, c1 := range calls {
		for j, c2 := range calls {
			if i != j && canPrecede(c, c1, c2) && !timestamp.Less(c1.Val, c2.Val) {
				return Violation{First: c1, Second: c2}
			}
		}
	}
	return nil
}

// causality is the conflict-based vector-clock analysis of one trace.
type causality struct {
	n         int
	globalIdx [][]int // per-process ordinal → global trace index
	vc        [][]int // vc[i][p] = p's ops in the causal past of op i, inclusive
}

func analyze(n int, trace []sched.Op) (*causality, error) {
	return analyzeBarriers(n, trace, nil)
}

func analyzeBarriers(n int, trace []sched.Op, barriers []Barrier) (*causality, error) {
	c := &causality{n: n, globalIdx: make([][]int, n), vc: make([][]int, len(trace))}
	for i, op := range trace {
		if op.Pid < 0 || op.Pid >= n {
			return nil, fmt.Errorf("mc: trace op %d has pid %d outside [0,%d)", i, op.Pid, n)
		}
		c.globalIdx[op.Pid] = append(c.globalIdx[op.Pid], i)
	}
	// barrier[p] is the trace index whose clock joins into p's first
	// operation; program order then carries it through the rest of p.
	barrier := make(map[int]int, len(barriers))
	for _, b := range barriers {
		if b.Before < 0 {
			continue
		}
		if b.After < 0 || b.After >= n {
			return nil, fmt.Errorf("mc: barrier names pid %d outside [0,%d)", b.After, n)
		}
		if b.Before >= len(trace) {
			return nil, fmt.Errorf("mc: barrier names trace index %d past the %d-op trace", b.Before, len(trace))
		}
		if idx := c.globalIdx[b.After]; len(idx) > 0 && idx[0] <= b.Before {
			return nil, fmt.Errorf("mc: barrier is acausal: p%d already ran at trace index %d, before %d", b.After, idx[0], b.Before)
		}
		if cur, ok := barrier[b.After]; !ok || b.Before > cur {
			barrier[b.After] = b.Before
		}
	}
	procVC := make([][]int, n)
	writeVC := map[int][]int{} // register → clock of its latest write
	readVC := map[int][]int{}  // register → join of reads since that write
	ord := make([]int, n)
	join := func(dst, src []int) {
		for p := 0; p < n; p++ {
			if src != nil && src[p] > dst[p] {
				dst[p] = src[p]
			}
		}
	}
	for i, op := range trace {
		clock := make([]int, n)
		join(clock, procVC[op.Pid])
		if procVC[op.Pid] == nil {
			if before, ok := barrier[op.Pid]; ok {
				join(clock, c.vc[before])
			}
		}
		join(clock, writeVC[op.Reg])
		if op.Kind == sched.OpWrite {
			join(clock, readVC[op.Reg])
		}
		ord[op.Pid]++
		clock[op.Pid] = ord[op.Pid]
		c.vc[i] = clock
		procVC[op.Pid] = clock
		if op.Kind == sched.OpWrite {
			writeVC[op.Reg] = clock
			readVC[op.Reg] = nil
		} else {
			rv := readVC[op.Reg]
			if rv == nil {
				rv = make([]int, n)
				readVC[op.Reg] = rv
			}
			join(rv, clock)
		}
	}
	return c, nil
}

// canPrecede reports whether some execution in the class runs c1 to
// completion before c2 begins: no operation of c2 may be forced (by a
// dependency chain) before an operation of c1. The clock of c1's last
// operation counts exactly the c2-process operations so forced; c1 can
// precede c2 iff that count does not reach into c2's span.
func canPrecede(c *causality, c1, c2 Call) bool {
	if c1.First < 0 || c2.First < 0 {
		return false // operation-free call: exempt (fas-style objects)
	}
	if c1.Pid == c2.Pid {
		return c1.Last < c2.First
	}
	if c1.Last >= len(c.globalIdx[c1.Pid]) {
		return false
	}
	last := c.vc[c.globalIdx[c1.Pid][c1.Last]]
	return last[c2.Pid] <= c2.First
}

// WitnessSchedule turns a Violation into an explicit witness execution: a
// dependency-preserving reordering of trace (as a pid schedule) that runs
// v.First's operations to completion before v.Second performs its first
// one. Replaying the returned schedule reproduces the violation as a plain
// interval-order failure that hbcheck.Check — and therefore every existing
// tool, tstrace -schedule included — can see directly.
//
// The reordering emits the downward dependency closure of v.First's last
// operation (in trace order, a valid linearization because the closure is
// left-closed), then everything else in trace order. Since the violation
// was realizable, the closure contains no operation of v.Second. It
// returns nil if the pair is not actually realizable on this trace.
func WitnessSchedule(n int, trace []sched.Op, v Violation) []int {
	c, err := analyze(n, trace)
	if err != nil {
		return nil
	}
	if !canPrecede(c, v.First, v.Second) {
		return nil
	}
	last := c.vc[c.globalIdx[v.First.Pid][v.First.Last]]
	schedule := make([]int, 0, len(trace))
	ord := make([]int, n)
	inClosure := func(op sched.Op, ordinal int) bool {
		return ordinal < last[op.Pid]
	}
	for _, phase := range []bool{true, false} {
		for i := range ord {
			ord[i] = 0
		}
		for _, op := range trace {
			if inClosure(op, ord[op.Pid]) == phase {
				schedule = append(schedule, op.Pid)
			}
			ord[op.Pid]++
		}
	}
	return schedule
}
