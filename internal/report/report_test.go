package report

import (
	"math/big"
	"strings"
	"testing"

	"tsspace/internal/mc"
)

func TestBudgetsValues(t *testing.T) {
	rows := Budgets([]int{64, 1024})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.N != 64 || r.LBLongLived != 10 || r.Collect != 64 || r.Dense != 63 ||
		r.Simple != 32 || r.Sqrt != 16 || r.LBOneShot != 3 {
		t.Errorf("n=64 row = %+v", r)
	}
	for _, r := range rows {
		if err := r.Check(); err != nil {
			t.Error(err)
		}
	}
}

func TestBudgetRowCheckCatchesInversion(t *testing.T) {
	bad := BudgetRow{N: 10, LBLongLived: 5, Dense: 4, Collect: 10, LBOneShot: 1, Sqrt: 7}
	if err := bad.Check(); err == nil {
		t.Error("lower bound above upper bound must be rejected")
	}
	bad2 := BudgetRow{N: 10, LBLongLived: 1, Dense: 9, Collect: 10, LBOneShot: 9, Sqrt: 7}
	if err := bad2.Check(); err == nil {
		t.Error("one-shot inversion must be rejected")
	}
}

func TestMeasuredSmall(t *testing.T) {
	rows, err := Measured([]int{16, 64}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := r.Check(); err != nil {
			t.Error(err)
		}
		if r.SqrtAdv < 0 || r.SqrtMin < 0 {
			t.Errorf("n=%d: adversarial columns skipped below cap", r.N)
		}
		// The minimizing schedule uses no more registers than sequential.
		if r.SqrtMin > r.SqrtSeq {
			t.Errorf("n=%d: min schedule %d > sequential %d", r.N, r.SqrtMin, r.SqrtSeq)
		}
	}
}

func TestMeasuredSkipsAdversarialAboveCap(t *testing.T) {
	rows, err := Measured([]int{32}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].SqrtAdv != -1 || rows[0].SqrtMin != -1 {
		t.Errorf("adversarial columns should be skipped: %+v", rows[0])
	}
}

func TestFormatting(t *testing.T) {
	rows := Budgets([]int{64})
	out := FormatBudgets(rows)
	if !strings.Contains(out, "E8") || !strings.Contains(out, "64") {
		t.Errorf("budget table malformed:\n%s", out)
	}
	mrows := []MeasuredRow{{N: 8, Collect: 8, Dense: 7, Simple: 4, SqrtSeq: 4, SqrtAdv: -1, SqrtMin: -1, SqrtBudget: 6}}
	mout := FormatMeasured(mrows)
	if !strings.Contains(mout, "-") || !strings.Contains(mout, "E3/E4") {
		t.Errorf("measured table malformed:\n%s", mout)
	}
}

func TestMeasuredRowCheckCatchesBadValues(t *testing.T) {
	bad := MeasuredRow{N: 8, Collect: 7, Dense: 7, Simple: 4, SqrtSeq: 4, SqrtBudget: 6}
	if err := bad.Check(); err == nil {
		t.Error("wrong collect count must be rejected")
	}
	bad = MeasuredRow{N: 8, Collect: 8, Dense: 7, Simple: 4, SqrtSeq: 6, SqrtBudget: 6}
	if err := bad.Check(); err == nil {
		t.Error("budget-violating sqrt must be rejected")
	}
}

func TestFormatExploration(t *testing.T) {
	sqrt4, _ := new(big.Int).SetString("806107629204877480505640", 10)
	rows := []ExplorationRow{
		{Alg: "dense", N: 3, Calls: 1, Naive: big.NewInt(560),
			Stats: mc.Stats{Visited: 11, Nodes: 88, SleepPruned: 58}},
		{Alg: "sqrt", N: 3, Calls: 1, Naive: big.NewInt(9033220254630),
			Stats: mc.Stats{Visited: 150, Nodes: 6118, SleepPruned: 5319}},
		{Alg: "sqrt", N: 4, Calls: 1, Naive: sqrt4,
			Stats: mc.Stats{Visited: 7280, Nodes: 480040, SleepPruned: 563857}},
	}
	if got := rows[0].Reduction(); got <= 0 || got > 0.2 {
		t.Errorf("dense reduction = %v, want within (0, 0.2]", got)
	}
	if got := rows[1].Reduction(); got <= 0 || got >= 0.00005 {
		t.Errorf("sqrt 3×1 reduction = %v, want within (0, 0.005%%)", got)
	}
	out := FormatExploration(rows)
	for _, want := range []string{"E11", "dense", "3×1", "560", "11", "1.96%", "6118",
		"9033220254630", "1.66e-09%", "806107629204877480505640", "9.03e-19%"} {
		if !strings.Contains(out, want) {
			t.Errorf("exploration table missing %q:\n%s", want, out)
		}
	}
}
