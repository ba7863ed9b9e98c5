package main

import (
	"fmt"
	"os"
	"path/filepath"

	"tsspace/internal/engine"
	"tsspace/internal/hbcheck"
	"tsspace/internal/lowerbound"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
)

// crashCheck runs the torn-write conformance legs: every simulable
// registry algorithm (mutants included) goes through the systematic
// crash sweep — one injected crash per victim, per crash point, per
// torn-write outcome — at each -exploren process count, plus a seeded
// crash-fuzz pass. Correct algorithms must survive every leg; the
// crash-checkpoint mutant must be caught with a replayable witness (it is
// indistinguishable from collect without fault injection, so this leg is
// the proof the harness actually bites). Other mutants are reported as
// caught or survived without failing the run: their bugs are
// interleaving bugs, not crash bugs, and their own legs live in the
// crash-free modes.
func crashCheck(cfg modelCheckConfig, ns []int) bool {
	failed := false
	for _, name := range timestamp.AllNames() {
		fam, _ := timestamp.Lookup(name)
		probe := fam.New(fam.MinProcs)
		if !engine.Simulable(probe) {
			fmt.Printf("skip  %-22s not simulable: no crash legs\n", name)
			continue
		}
		caught := false
		for _, n := range ns {
			if n < fam.MinProcs {
				continue
			}
			mkAlg := func() timestamp.Algorithm { return fam.New(n) }
			alg := mkAlg()
			var wl engine.Workload = engine.LongLived{CallsPerProc: fam.ExploreCalls}
			if alg.OneShot() {
				wl = engine.OneShot{}
			}
			c := engine.Config{
				Alg: alg, World: engine.Simulated, N: n, Workload: wl, Seed: cfg.seed,
			}
			runs, err := engine.CrashSweep(c, engine.CrashSweepOptions{
				Shrink: cfg.shrink, NewAlg: mkAlg,
			})
			what := fmt.Sprintf("crash sweep n=%d (%d executions)", n, runs)
			if err == nil {
				rep, ferr := engine.CrashFuzz(c, engine.CrashFuzzOptions{
					Count: 50, Crashes: 2, Shrink: cfg.shrink, NewAlg: mkAlg,
				})
				what = fmt.Sprintf("%s + crash fuzz (%d schedules)", what, rep.Schedules)
				err = ferr
			}
			if fam.Mutant {
				if err != nil {
					caught = true
					fmt.Printf("ok    %-22s %s: mutant caught: %v\n", name, what, err)
					writeCrashCex(cfg.cexDir, name, n, fam.ExploreCalls, err)
					break
				}
				fmt.Printf("info  %-22s %s: mutant not caught by crash legs\n", name, what)
				continue
			}
			reportLine(&failed, name, what, err)
			writeCrashCex(cfg.cexDir, name, n, fam.ExploreCalls, err)
		}
		if fam.Name == "collect-crash-memo" && !caught {
			fmt.Printf("FAIL  %-22s crash-checkpoint mutant NOT caught — fault injection is not biting\n", name)
			failed = true
		}
	}
	return failed
}

// confront runs the live lower-bound adversaries against every simulable
// correct algorithm at the -confrontn process counts and prints the
// measured-coverage-vs-certificate table. The executions are
// happens-before-checked (an adversary that breaks the algorithm instead
// of covering it proves nothing). The coverage assertion is enforced on
// collect — the canonical n-register implementation whose covering
// structure the constructions are stated against; other algorithms'
// margins are reported for the record (the theorems promise a winning
// adversary exists, not that this greedy one wins against every
// register layout).
func confront(cfg modelCheckConfig, ns []int) bool {
	failed := false
	fmt.Printf("%-22s %4s %9s %4s %8s %12s %7s %7s\n",
		"algorithm", "n", "adversary", "m", "covered", "certificate", "margin", "steps")
	for _, fam := range families {
		probe := fam.New(fam.MinProcs)
		if !engine.Simulable(probe) {
			continue
		}
		for _, n := range ns {
			if n < fam.MinProcs {
				continue
			}
			var rec *hbcheck.Recorder
			factory := func(wl engine.Workload) sched.Factory {
				return func() *sched.System {
					sys, r, _ := engine.NewSimSystem(engine.Config{
						Alg: fam.New(n), World: engine.Simulated, N: n, Workload: wl, Seed: cfg.seed,
					})
					rec = r
					return sys
				}
			}
			enforce := fam.Name == "collect"

			reports := []*lowerbound.LiveReport{}
			one, err := lowerbound.LiveOneShot(factory(engine.OneShot{}))
			if err != nil {
				fmt.Fprintf(os.Stderr, "tscheck: %s n=%d: %v\n", fam.Name, n, err)
				failed = true
				continue
			}
			if herr := hbcheck.Check(rec.Events()); herr != nil {
				fmt.Fprintf(os.Stderr, "tscheck: %s n=%d: adversary execution violates happens-before: %v\n", fam.Name, n, herr)
				failed = true
			}
			reports = append(reports, one)

			if !probe.OneShot() {
				const rounds = 3
				ll, err := lowerbound.LiveLongLived(factory(engine.LongLived{CallsPerProc: rounds + 1}), rounds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "tscheck: %s n=%d: %v\n", fam.Name, n, err)
					failed = true
					continue
				}
				if herr := hbcheck.Check(rec.Events()); herr != nil {
					fmt.Fprintf(os.Stderr, "tscheck: %s n=%d: adversary execution violates happens-before: %v\n", fam.Name, n, herr)
					failed = true
				}
				reports = append(reports, ll)
			}

			for _, rep := range reports {
				verdict := ""
				if rep.Margin < 0 {
					if enforce {
						verdict = "  FAIL: below certificate"
						failed = true
					} else {
						verdict = "  (below certificate; informational)"
					}
				}
				fmt.Printf("%-22s %4d %9s %4d %8d %12d %+7d %7d%s\n",
					fam.Name, n, shortAdversary(rep.Adversary), rep.M,
					rep.MaxCovered, rep.Certificate, rep.Margin, rep.Steps, verdict)
			}
		}
	}
	return failed
}

func shortAdversary(name string) string {
	switch name {
	case "live-one-shot-cover":
		return "one-shot"
	case "live-clone-and-cover":
		return "longlived"
	}
	return name
}

// writeCrashCex persists a crash-schedule counterexample as a replayable
// artifact in the crash witness format (x/X tokens; cmd/tstrace replays
// it through the fault-injection harness).
func writeCrashCex(dir, alg string, n, calls int, err error) {
	cex, ok := err.(*engine.Counterexample)
	if dir == "" || !ok {
		return
	}
	if mkErr := os.MkdirAll(dir, 0o755); mkErr != nil {
		fmt.Fprintf(os.Stderr, "tscheck: %v\n", mkErr)
		return
	}
	text := sched.FormatCrashSchedule(cex.Schedule)
	path := filepath.Join(dir, fmt.Sprintf("%s-crash-n%d.schedule", alg, n))
	body := fmt.Sprintf("# tscheck crash counterexample: %s n=%d calls=%d (%d entries)\n# %v\n# replay: go run ./cmd/tstrace -alg %s -n %d -calls %d -schedule %s\n%s\n",
		alg, n, calls, cex.Steps, cex.Err, alg, n, calls, text, text)
	if wErr := os.WriteFile(path, []byte(body), 0o644); wErr != nil {
		fmt.Fprintf(os.Stderr, "tscheck: %v\n", wErr)
		return
	}
	fmt.Printf("      crash counterexample written to %s\n", path)
}
