// Package report builds the experiment tables that cmd/tsspace prints and
// EXPERIMENTS.md records: register budgets versus the paper's bounds, and
// measured register usage across implementations and schedules. Keeping the
// table builders here makes the reproduction's outputs unit-testable.
package report

import (
	"fmt"
	"math/big"
	"strings"
	"text/tabwriter"
	"time"

	"tsspace/internal/adversary"
	"tsspace/internal/engine"
	"tsspace/internal/lowerbound"
	"tsspace/internal/mc"
	"tsspace/internal/timestamp"
	_ "tsspace/internal/timestamp/all" // the tables roster the full catalog by name
)

// BudgetRow is one line of the E8 budget table.
type BudgetRow struct {
	N           int
	LBLongLived int // ⌊n/6⌋ (Theorem 1.1)
	Collect     int // n
	Dense       int // n−1
	LBOneShot   int // √2n − log n − 2 (Theorem 1.2)
	Simple      int // ⌈n/2⌉ (§5)
	Sqrt        int // ⌈2√n⌉ (Theorem 1.3)
}

// Budgets computes the E8 table for the given process counts.
func Budgets(ns []int) []BudgetRow {
	rows := make([]BudgetRow, 0, len(ns))
	for _, n := range ns {
		rows = append(rows, BudgetRow{
			N:           n,
			LBLongLived: lowerbound.LongLivedLower(n),
			Collect:     timestamp.MustNew("collect", n).Registers(),
			Dense:       timestamp.MustNew("dense", n).Registers(),
			LBOneShot:   lowerbound.OneShotLower(n),
			Simple:      timestamp.MustNew("simple", n).Registers(),
			Sqrt:        timestamp.MustNew("sqrt", n).Registers(),
		})
	}
	return rows
}

// Check validates the row's internal ordering relations: lower bounds below
// their matching upper bounds, and the asymptotic gap for large n.
func (r BudgetRow) Check() error {
	if r.LBLongLived > r.Dense || r.Dense >= r.Collect {
		return fmt.Errorf("report: n=%d: long-lived bounds out of order (%d, %d, %d)", r.N, r.LBLongLived, r.Dense, r.Collect)
	}
	if r.LBOneShot > r.Sqrt {
		return fmt.Errorf("report: n=%d: one-shot lower bound %d above upper bound %d", r.N, r.LBOneShot, r.Sqrt)
	}
	return nil
}

// MeasuredRow is one line of the E3/E4 measured table.
type MeasuredRow struct {
	N          int
	Collect    int // registers written, long-lived 2 calls/proc
	Dense      int
	Simple     int
	SqrtSeq    int // Algorithm 4 under a sequential schedule
	SqrtAdv    int // under the stale-release adversary (-1 if skipped)
	SqrtMin    int // under the space-minimizing double-cross schedule (-1 if skipped)
	SqrtBudget int // ⌈2√n⌉
}

// Measured runs the implementations and measures registers written.
// Adversarial columns are computed only for n ≤ advCap (the deterministic
// scheduler is slow for very large n); skipped cells hold −1.
func Measured(ns []int, advCap int) ([]MeasuredRow, error) {
	rows := make([]MeasuredRow, 0, len(ns))
	for _, n := range ns {
		row := MeasuredRow{N: n, SqrtAdv: -1, SqrtMin: -1, SqrtBudget: timestamp.MustNew("sqrt", n).Registers()}
		for _, name := range []string{"collect", "dense", "simple"} {
			alg := timestamp.MustNew(name, n)
			var wl engine.Workload = engine.OneShot{}
			if !alg.OneShot() {
				wl = engine.LongLived{CallsPerProc: 2}
			}
			rep, err := engine.Run(engine.Config{
				Alg:      alg,
				World:    engine.Atomic,
				N:        n,
				Workload: wl,
			})
			if err != nil {
				return nil, fmt.Errorf("report: %s n=%d: %w", alg.Name(), n, err)
			}
			switch alg.Name() {
			case "collect":
				row.Collect = rep.Space.Written
			case "dense":
				row.Dense = rep.Space.Written
			case "simple":
				row.Simple = rep.Space.Written
			}
		}
		seq, err := adversary.MeasureSequential(n)
		if err != nil {
			return nil, err
		}
		row.SqrtSeq = seq
		if n <= advCap {
			adv, err := adversary.StaleRelease(n)
			if err != nil {
				return nil, err
			}
			row.SqrtAdv = adv.Written
			mins, err := adversary.DoubleCross(n)
			if err != nil {
				return nil, err
			}
			row.SqrtMin = mins.Written
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Check validates the measured row against the paper's bounds.
func (r MeasuredRow) Check() error {
	if r.Collect != r.N {
		return fmt.Errorf("report: n=%d: collect wrote %d registers, want n", r.N, r.Collect)
	}
	if r.Dense != r.N-1 {
		return fmt.Errorf("report: n=%d: dense wrote %d registers, want n−1", r.N, r.Dense)
	}
	if r.Simple != (r.N+1)/2 {
		return fmt.Errorf("report: n=%d: simple wrote %d registers, want ⌈n/2⌉", r.N, r.Simple)
	}
	if r.SqrtSeq >= r.SqrtBudget {
		return fmt.Errorf("report: n=%d: sequential sqrt wrote %d, budget %d", r.N, r.SqrtSeq, r.SqrtBudget)
	}
	if r.SqrtAdv >= 0 && r.SqrtAdv >= r.SqrtBudget {
		return fmt.Errorf("report: n=%d: adversarial sqrt wrote %d, budget %d", r.N, r.SqrtAdv, r.SqrtBudget)
	}
	return nil
}

// FormatBudgets renders the budget table.
func FormatBudgets(rows []BudgetRow) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "EXPERIMENT E8 — register budgets (allocated) vs paper bounds")
	fmt.Fprintln(w, "n\tLB long-lived\tcollect\tdense\tLB one-shot\tsimple\tsqrt\t")
	fmt.Fprintln(w, "\t⌊n/6⌋\tn\tn−1\t√2n−log n−2\t⌈n/2⌉\t⌈2√n⌉\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			r.N, r.LBLongLived, r.Collect, r.Dense, r.LBOneShot, r.Simple, r.Sqrt)
	}
	w.Flush()
	return sb.String()
}

// Summary renders a one-line digest of an engine run: the shared footer
// every CLI and example prints after a run.
func Summary(rep *engine.Report) string {
	s := fmt.Sprintf("%s · %s world · %s · n=%d: %d getTS() calls, %d/%d registers written, %d reads / %d writes, %v",
		rep.Alg, rep.World, rep.Workload, rep.N,
		len(rep.Events), rep.Space.Written, rep.Space.Registers,
		rep.Space.Reads, rep.Space.Writes, rep.Elapsed.Round(10*time.Microsecond))
	if rep.World == engine.Simulated {
		s += fmt.Sprintf(" (%d scheduler steps)", rep.Steps)
	}
	return s
}

// ExplorationRow is one line of the model-checking reduction table (E11):
// how many schedules the partial-order-reduced exploration visited for one
// Algorithm × N × Calls cell, against the number of maximal schedules.
type ExplorationRow struct {
	Alg      string
	N, Calls int
	// Naive is the number of maximal schedules, all of which a naive DFS
	// would visit (engine.Count).
	Naive *big.Int
	// Stats is the POR exploration's accounting.
	Stats mc.Stats
}

// Reduction returns POR visits as a fraction of the naive count.
func (r ExplorationRow) Reduction() float64 {
	naive, _ := new(big.Float).SetInt(r.Naive).Float64()
	return float64(r.Stats.Visited) / naive
}

// FormatExploration renders the exploration table. The reduction prints
// three significant digits: sqrt 3×1 visits 150 of 9.0 × 10¹² schedules,
// which two decimals would print as 0.00%.
func FormatExploration(rows []ExplorationRow) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "EXPERIMENT E11 — schedules explored: POR (sleep sets) vs naive (every maximal schedule, counted)")
	fmt.Fprintln(w, "alg\tn×calls\tnaive\tPOR\treduction\tstates\tsleep-pruned\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d×%d\t%d\t%d\t%.3g%%\t%d\t%d\t\n",
			r.Alg, r.N, r.Calls, r.Naive, r.Stats.Visited, 100*r.Reduction(),
			r.Stats.Nodes, r.Stats.SleepPruned)
	}
	w.Flush()
	return sb.String()
}

// FormatMeasured renders the measured table; skipped adversarial cells
// print as "-".
func FormatMeasured(rows []MeasuredRow) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "EXPERIMENTS E3/E4 — registers written (measured)")
	fmt.Fprintln(w, "n\tcollect\tdense\tsimple\tsqrt seq\tsqrt adv\tsqrt min\tsqrt budget\t")
	cell := func(v int) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprint(v)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%s\t%s\t%d\t\n",
			r.N, r.Collect, r.Dense, r.Simple, r.SqrtSeq, cell(r.SqrtAdv), cell(r.SqrtMin), r.SqrtBudget)
	}
	w.Flush()
	return sb.String()
}
