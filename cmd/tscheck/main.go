// Command tscheck model-checks and stress-tests every timestamp
// implementation against the happens-before specification (§2).
//
// The default run is the classic suite: engine.Exhaustive with POR off
// (a naive DFS over 2 processes, capped at -visits) and engine.Fuzz
// (-samples random schedules), both under the causal checker, then
// engine.Run for the scenario workloads and the real-goroutine runs, each
// verified by the interval-order checker.
//
// The model-checking modes run the sleep-set (partial-order-reduced)
// explorer in internal/mc through the unified conformance driver in
// internal/engine:
//
//	tscheck -explore              exhaustive POR exploration of every
//	                              algorithm at the -exploren process counts,
//	                              checked by the causal (class-wide) verifier
//	tscheck -explore -por=false   same coverage via naive DFS (the baseline)
//	tscheck -explore -compare     print the E11 reduction table: POR visits
//	                              against the number of maximal schedules,
//	                              counted (engine.Count), not enumerated
//	tscheck -fuzz 200             seeded random-schedule fuzzing at -fuzzn
//	tscheck -mutant               demonstrate the checker catching the
//	                              stale-scan mutant with a shrunk witness
//	tscheck -crash                torn-write conformance: crash sweep +
//	                              crash fuzz over every registry algorithm
//	                              (the crash-checkpoint mutant must be caught)
//	tscheck -confront             run the live lower-bound adversaries and
//	                              print the coverage-vs-certificate table
//	                              for the -confrontn process counts
//	tscheck -cexdir DIR           write failing schedules as replayable
//	                              artifacts (see cmd/tstrace -schedule)
//
// Any failing schedule is shrunk (unless -shrink=false) to a 1-minimal
// counterexample and serialized so the violating pair is back to back.
//
// Usage:
//
//	tscheck [-n 4] [-visits 2000] [-samples 100] [-reps 20]
//	        [-explore] [-exploren 2,3] [-por] [-compare] [-fuzz N]
//	        [-fuzzn 8] [-shrink] [-mutant] [-cexdir DIR] [-seed 42]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tsspace/internal/engine"
	"tsspace/internal/report"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
	_ "tsspace/internal/timestamp/all" // self-registering algorithm catalog
)

// families is the conformance roster: every correct implementation in the
// registry, with its exploration metadata (minimum process count, call
// depth) carried by the registration itself.
var families = timestamp.All()

func main() {
	n := flag.Int("n", 4, "processes for sampled and concurrent runs")
	visits := flag.Int("visits", 2000, "cap on exhaustive interleavings (classic suite, 2 processes)")
	samples := flag.Int("samples", 100, "random schedules per algorithm (classic suite)")
	reps := flag.Int("reps", 20, "real-concurrency repetitions per algorithm")
	seed := flag.Int64("seed", 42, "schedule sampling seed")
	explore := flag.Bool("explore", false, "exhaustive model checking of every algorithm (internal/mc)")
	exploreNs := flag.String("exploren", "2,3", "process counts for -explore")
	por := flag.Bool("por", true, "partial-order reduction (sleep sets) for -explore")
	compare := flag.Bool("compare", false, "with -explore: also count every maximal schedule and print the E11 reduction table")
	fuzz := flag.Int("fuzz", 0, "seeded random schedules per algorithm (0 = off)")
	fuzzN := flag.Int("fuzzn", 8, "processes for -fuzz")
	shrink := flag.Bool("shrink", true, "shrink failing schedules to minimal counterexamples")
	mutantDemo := flag.Bool("mutant", false, "verify the checker catches the stale-scan mutant")
	crash := flag.Bool("crash", false, "torn-write conformance: crash sweep + crash fuzz over the registry (mutants included)")
	confrontMode := flag.Bool("confront", false, "run the live lower-bound adversaries and print the coverage-vs-certificate table")
	confrontNs := flag.String("confrontn", "8,16,32,64", "process counts for -confront")
	cexDir := flag.String("cexdir", "", "directory for counterexample artifacts")
	flag.Parse()

	if *explore || *fuzz > 0 || *mutantDemo || *crash || *confrontMode {
		os.Exit(modelCheck(modelCheckConfig{
			exploreNs: *exploreNs, explore: *explore, por: *por, compare: *compare,
			fuzz: *fuzz, fuzzN: *fuzzN, shrink: *shrink, mutant: *mutantDemo,
			crash: *crash, confront: *confrontMode, confrontNs: *confrontNs,
			cexDir: *cexDir, seed: *seed,
		}))
	}
	classic(*n, *visits, *samples, *reps, *seed)
}

type modelCheckConfig struct {
	exploreNs             string
	explore, por, compare bool
	fuzz, fuzzN           int
	shrink, mutant        bool
	crash, confront       bool
	confrontNs            string
	cexDir                string
	seed                  int64
}

// modelCheck runs the explore/fuzz/mutant modes and returns the exit code.
func modelCheck(cfg modelCheckConfig) int {
	failed := false
	ns, err := sched.ParseSchedule(cfg.exploreNs) // same comma-separated int format
	if err != nil || len(ns) == 0 {
		fmt.Fprintf(os.Stderr, "tscheck: bad -exploren %q\n", cfg.exploreNs)
		return 2
	}

	var tableRows []report.ExplorationRow
	exploreLegs := 0
	for _, fam := range families {
		if cfg.explore {
			for _, en := range ns {
				if en < fam.MinProcs {
					continue
				}
				exploreLegs++
				calls := fam.ExploreCalls
				if en > 2 {
					calls = 1 // long-lived call programs explode beyond n=2
				}
				spec := engine.ConformanceSpec{
					New:          func(n int) timestamp.Algorithm { return fam.New(n) },
					ExhaustiveNs: []int{en},
					Calls:        calls,
					MaxVisits:    exploreCap,
					FuzzCount:    20, // atomic substitute for non-simulable algorithms
					Seed:         cfg.seed,
					POR:          cfg.por,
					Shrink:       cfg.shrink,
				}
				for _, res := range engine.Conformance(spec) {
					err := res.Err
					if cfg.compare && err == nil && res.Skipped == "" && !capped(res) {
						var row report.ExplorationRow
						if row, err = compareRow(fam, res); err == nil {
							tableRows = append(tableRows, row)
						}
					}
					what := fmt.Sprintf("explore %d×%d: %s", res.N, res.Calls, describe(res))
					if capped(res) {
						// A capped exploration is a smoke pass, not an
						// exhaustive one; say so rather than overclaim.
						what += " — VISIT CAP REACHED, not exhaustive"
					}
					reportLine(&failed, res.Alg, what, err)
					writeCex(cfg.cexDir, res.Alg, res.N, res.Calls, res.Err)
				}
			}
		}
		if cfg.fuzz > 0 {
			alg := fam.New(cfg.fuzzN)
			calls := fam.ExploreCalls
			if alg.OneShot() {
				calls = 1
			}
			var wl engine.Workload = engine.OneShot{}
			if calls > 1 {
				wl = engine.LongLived{CallsPerProc: calls}
			}
			rep, err := engine.Fuzz(engine.Config{
				Alg: alg, World: engine.Simulated, N: cfg.fuzzN, Workload: wl, Seed: cfg.seed,
			}, engine.FuzzOptions{
				Count:  cfg.fuzz,
				Shrink: cfg.shrink,
				NewAlg: func() timestamp.Algorithm { return fam.New(cfg.fuzzN) },
			})
			what := fmt.Sprintf("fuzz %d×%d: %d %s schedules", cfg.fuzzN, calls, rep.Schedules, rep.World)
			reportLine(&failed, alg.Name(), what, err)
			writeCex(cfg.cexDir, alg.Name(), cfg.fuzzN, calls, err)
		}
	}

	if cfg.explore && exploreLegs == 0 {
		fmt.Fprintf(os.Stderr, "tscheck: -exploren %q selected no algorithm (all below the minimum process counts)\n", cfg.exploreNs)
		return 2
	}
	if cfg.mutant {
		failed = !mutantCaught(cfg) || failed
	}
	if cfg.crash {
		failed = crashCheck(cfg, ns) || failed
	}
	if cfg.confront {
		cns, err := sched.ParseSchedule(cfg.confrontNs)
		if err != nil || len(cns) == 0 {
			fmt.Fprintf(os.Stderr, "tscheck: bad -confrontn %q\n", cfg.confrontNs)
			return 2
		}
		failed = confront(cfg, cns) || failed
	}
	if len(tableRows) > 0 {
		fmt.Println()
		fmt.Print(report.FormatExploration(tableRows))
	}
	if failed {
		return 1
	}
	fmt.Println("\nall checks passed")
	return 0
}

func describe(res engine.ConformanceResult) string {
	if res.Skipped != "" {
		return fmt.Sprintf("%s (%d atomic runs)", res.Skipped, res.Schedules)
	}
	return res.Stats.String()
}

// exploreCap is the visit budget per exploration cell. Reaching it means
// the cell was NOT explored exhaustively; tscheck flags such legs and
// keeps them out of the E11 table.
const exploreCap = 200_000

func capped(res engine.ConformanceResult) bool {
	return res.Skipped == "" && res.Stats.Visited >= exploreCap
}

// compareRow counts the cell's maximal schedules (engine.Count) for the
// E11 table's naive column.
func compareRow(fam timestamp.Info, res engine.ConformanceResult) (report.ExplorationRow, error) {
	var wl engine.Workload = engine.OneShot{}
	if res.Calls > 1 {
		wl = engine.LongLived{CallsPerProc: res.Calls}
	}
	naive, err := engine.Count(engine.Config{
		Alg: fam.New(res.N), World: engine.Simulated, N: res.N, Workload: wl,
	}, func() timestamp.Algorithm { return fam.New(res.N) })
	if err != nil {
		return report.ExplorationRow{}, fmt.Errorf("counting the naive schedules: %w", err)
	}
	return report.ExplorationRow{Alg: res.Alg, N: res.N, Calls: res.Calls, Naive: naive, Stats: res.Stats}, nil
}

// mutantCaught runs the stale-scan mutant through exhaustive exploration
// and reports whether the checker produced a shrunk counterexample — the
// validation that the conformance machinery actually rejects broken
// objects.
func mutantCaught(cfg modelCheckConfig) bool {
	const n = 2
	newMutant := func() timestamp.Algorithm { return timestamp.MustNew("collect-stale-scan", n) }
	_, err := engine.Exhaustive(engine.Config{
		Alg: newMutant(), World: engine.Simulated, N: n,
		Workload: engine.LongLived{CallsPerProc: 2},
	}, engine.ExhaustiveOptions{
		POR: cfg.por, Shrink: cfg.shrink, NewAlg: newMutant,
	})
	cex, ok := err.(*engine.Counterexample)
	if !ok {
		fmt.Printf("FAIL  %-18s mutant NOT caught (err = %v)\n", "collect-stale-scan", err)
		return false
	}
	fmt.Printf("ok    %-18s mutant caught: %d-step witness %v\n      %v\n",
		"collect-stale-scan", cex.Steps, cex.Schedule, cex.Err)
	writeCex(cfg.cexDir, "collect-stale-scan", n, 2, cex)
	return true
}

// writeCex persists a counterexample as a replayable artifact.
func writeCex(dir, alg string, n, calls int, err error) {
	cex, ok := err.(*engine.Counterexample)
	if dir == "" || !ok {
		return
	}
	if mkErr := os.MkdirAll(dir, 0o755); mkErr != nil {
		fmt.Fprintf(os.Stderr, "tscheck: %v\n", mkErr)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-n%d.schedule", alg, n))
	body := fmt.Sprintf("# tscheck counterexample: %s n=%d calls=%d (%d steps)\n# %v\n# replay: go run ./cmd/tstrace -alg %s -n %d -calls %d -schedule %s\n%s\n",
		alg, n, calls, cex.Steps, cex.Err, alg, n, calls,
		sched.FormatSchedule(cex.Schedule), sched.FormatSchedule(cex.Schedule))
	if wErr := os.WriteFile(path, []byte(body), 0o644); wErr != nil {
		fmt.Fprintf(os.Stderr, "tscheck: %v\n", wErr)
		return
	}
	fmt.Printf("      counterexample written to %s\n", path)
}

// classic is the original tscheck suite, rostered from the registry.
func classic(n, visits, samples, reps int, seed int64) {
	failed := false
	for _, fam := range timestamp.All() {
		if n < fam.MinProcs {
			fmt.Printf("skip  %-18s needs ≥ %d processes, -n is %d\n", fam.Name, fam.MinProcs, n)
			continue
		}
		alg := fam.New(n)
		simulable := engine.Simulable(alg)
		calls := 2
		if alg.OneShot() {
			calls = 1
		}
		cfg := func(world engine.World, wl engine.Workload) engine.Config {
			return engine.Config{
				Alg: alg, World: world, N: n, Workload: wl, Seed: seed,
			}
		}

		if simulable {
			small := cfg(engine.Simulated, engine.OneShot{})
			small.N = 2
			stats, err := engine.Exhaustive(small, engine.ExhaustiveOptions{MaxVisits: visits})
			reportLine(&failed, alg.Name(), fmt.Sprintf("exhaustive 2×1 (%d interleavings)", stats.Visited), err)

			_, err = engine.Fuzz(cfg(engine.Simulated, engine.LongLived{CallsPerProc: calls}), engine.FuzzOptions{Count: samples})
			reportLine(&failed, alg.Name(), fmt.Sprintf("sampled %d×%d ×%d schedules", n, calls, samples), err)

			// The engine's scenario workloads, one sim run each: phased
			// batches and mixed churn (processes join and leave mid-run).
			for _, wl := range []engine.Workload{
				engine.Phased{GroupSize: 2, CallsPerProc: calls},
				engine.Churn{Width: (n + 1) / 2, CallsPerProc: calls},
			} {
				rep, err := engine.Run(cfg(engine.Simulated, wl))
				if err == nil {
					err = rep.Verify()
				}
				reportLine(&failed, alg.Name(), fmt.Sprintf("%s %d×%d", wl.Kind(), n, calls), err)
			}
		} else {
			fmt.Printf("skip  %-18s not simulable: no scheduler legs, concurrent runs only\n", alg.Name())
		}

		var concErr error
		for r := 0; r < reps && concErr == nil; r++ {
			var rep *engine.Report
			rep, concErr = engine.Run(cfg(engine.Atomic, engine.LongLived{CallsPerProc: calls}))
			if concErr == nil {
				concErr = rep.Verify()
			}
		}
		reportLine(&failed, alg.Name(), fmt.Sprintf("concurrent %d×%d ×%d runs", n, calls, reps), concErr)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("\nall checks passed")
}

func reportLine(failed *bool, alg, what string, err error) {
	status := "ok  "
	if err != nil {
		status = "FAIL"
		*failed = true
	}
	fmt.Printf("%s  %-18s %s", status, alg, what)
	if err != nil {
		fmt.Printf(": %v", err)
	}
	fmt.Println()
}
