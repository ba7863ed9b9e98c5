package mc_test

import (
	"errors"
	"testing"

	"tsspace/internal/mc"
	"tsspace/internal/sched"
)

// The crash-recovery shape: p0 (a crashed primary) completed a call with
// timestamp 1, then its recovery incarnation p1 retried and got 2. The two
// calls touch disjoint registers, so no conflict edge orders them — only
// the barrier records that p1 started after p0's crash.
func barrierFixture() (trace []sched.Op, calls []mc.Call) {
	trace = []sched.Op{
		{Pid: 0, Kind: sched.OpWrite, Reg: 0, Val: int64(1), Step: 0},
		{Pid: 1, Kind: sched.OpWrite, Reg: 1, Val: int64(2), Step: 1},
	}
	calls = []mc.Call{
		{Pid: 0, Seq: 0, First: 0, Last: 0, Val: ts(1)},
		{Pid: 1, Seq: 0, First: 0, Last: 0, Val: ts(2)},
	}
	return trace, calls
}

func TestBarrierSuppressesAcausalReordering(t *testing.T) {
	trace, calls := barrierFixture()
	// Without the barrier the checker believes p1's call could have run
	// first (no conflicts force the order) and flags compare(2, 1) = false
	// — a false positive for a crash-recovery execution.
	err := mc.CausalCheck(2, trace, calls)
	var v mc.Violation
	if !errors.As(err, &v) {
		t.Fatalf("barrier-free check = %v, want a Violation", err)
	}
	// With the barrier (p1 starts after p0's last operation) the only
	// realizable order is p0 before p1, which the timestamps satisfy.
	err = mc.CausalCheckBarriers(2, trace, calls, []mc.Barrier{{Before: 0, After: 1}})
	if err != nil {
		t.Fatalf("barriered check = %v, want nil", err)
	}
}

func TestBarrierStillCatchesRealViolations(t *testing.T) {
	trace, calls := barrierFixture()
	// Swap the timestamps: now the recovery's call is ordered after the
	// primary's by the barrier yet compares below it — a real violation
	// the barrier must not mask.
	calls[0].Val, calls[1].Val = ts(2), ts(1)
	trace[0].Val, trace[1].Val = int64(2), int64(1)
	err := mc.CausalCheckBarriers(2, trace, calls, []mc.Barrier{{Before: 0, After: 1}})
	var v mc.Violation
	if !errors.As(err, &v) {
		t.Fatalf("barriered check = %v, want a Violation", err)
	}
}

func TestBarrierNoPredecessorOpsIsNoConstraint(t *testing.T) {
	trace, calls := barrierFixture()
	if err := mc.CausalCheckBarriers(2, trace, calls, []mc.Barrier{{Before: -1, After: 1}}); err == nil {
		t.Fatal("Before=-1 must be no constraint; the false positive should reappear")
	}
}

func TestBarrierValidation(t *testing.T) {
	trace, calls := barrierFixture()
	if err := mc.CausalCheckBarriers(2, trace, calls, []mc.Barrier{{Before: 5, After: 1}}); err == nil {
		t.Error("out-of-range Before accepted")
	}
	if err := mc.CausalCheckBarriers(2, trace, calls, []mc.Barrier{{Before: 0, After: 7}}); err == nil {
		t.Error("out-of-range After accepted")
	}
	// Acausal: p0's first op is at index 0, before the barrier's index 1.
	if err := mc.CausalCheckBarriers(2, trace, calls, []mc.Barrier{{Before: 1, After: 0}}); err == nil {
		t.Error("acausal barrier accepted")
	}
}
