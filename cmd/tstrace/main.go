// Command tstrace runs a timestamp implementation under the deterministic
// scheduler and prints the execution as a per-process timeline plus the
// returned timestamps — the visual form of the executions the paper's
// proofs manipulate. The schedule comes from one of the engine's
// workloads: a seeded random maximal interleaving (default), phased
// batches, mixed churn, or an explicit adversarial schedule.
//
// The -alg flag accepts any name in the algorithm registry, mutants
// included, so counterexample artifacts from tscheck -cexdir replay
// verbatim (such runs exit 1 with the violation). -algs lists the catalog.
//
// Usage:
//
//	tstrace [-alg sqrt] [-n 4] [-calls 1] [-seed 1]
//	        [-workload random|phased|churn] [-group 2] [-width 2]
//	        [-schedule 0,1,0,2,...]
//	tstrace -algs
package main

import (
	"flag"
	"fmt"
	"os"

	"strings"

	"tsspace/internal/engine"
	"tsspace/internal/report"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
	_ "tsspace/internal/timestamp/all" // self-registering algorithm catalog
)

func main() {
	algName := flag.String("alg", "sqrt", "algorithm: one of "+strings.Join(timestamp.Names(), " | ")+" (or a registered mutant)")
	n := flag.Int("n", 4, "processes")
	calls := flag.Int("calls", 1, "getTS calls per process (long-lived algorithms only)")
	seed := flag.Int64("seed", 1, "schedule seed")
	workload := flag.String("workload", "random", "schedule shape: random | phased | churn")
	group := flag.Int("group", 2, "batch size for -workload phased")
	width := flag.Int("width", 2, "live-process window for -workload churn")
	schedule := flag.String("schedule", "", "explicit comma-separated schedule (overrides -workload)")
	algs := flag.Bool("algs", false, "list the registered algorithms (mutants marked) and exit")
	flag.Parse()

	if *algs {
		for _, name := range timestamp.AllNames() {
			info, _ := timestamp.Lookup(name)
			mark := " "
			if info.Mutant {
				mark = "!"
			}
			fmt.Printf("%s %-22s %s\n", mark, info.Name, info.Summary)
		}
		return
	}

	info, ok := timestamp.Lookup(*algName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tstrace: unknown algorithm %q (have %v)\n", *algName, timestamp.AllNames())
		os.Exit(2)
	}
	if *n < info.MinProcs {
		fmt.Fprintf(os.Stderr, "tstrace: %s needs at least %d processes, -n is %d\n", info.Name, info.MinProcs, *n)
		os.Exit(2)
	}
	alg := info.New(*n)
	if !engine.Simulable(alg) {
		fmt.Fprintf(os.Stderr, "tstrace: %s cannot run under the deterministic scheduler\n", info.Name)
		os.Exit(2)
	}
	if alg.OneShot() {
		*calls = 1
	}

	var wl engine.Workload
	switch {
	case *schedule != "":
		steps, err := sched.ParseCrashSchedule(*schedule)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tstrace: %v\n", err)
			os.Exit(2)
		}
		if hasCrashEntry(steps) {
			os.Exit(crashReplay(alg, *n, *calls, *seed, steps))
		}
		wl = engine.Adversarial{Schedule: steps, CallsPerProc: *calls}
	case *workload == "random":
		wl = engine.LongLived{CallsPerProc: *calls}
	case *workload == "phased":
		wl = engine.Phased{GroupSize: *group, CallsPerProc: *calls}
	case *workload == "churn":
		wl = engine.Churn{Width: *width, CallsPerProc: *calls}
	default:
		fmt.Fprintf(os.Stderr, "tstrace: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	rep, err := engine.Run(engine.Config{
		Alg:      alg,
		World:    engine.Simulated,
		N:        *n,
		Workload: wl,
		Seed:     *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tstrace: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%s, n=%d, %d call(s) per process, %s, seed %d — %d steps\n\n",
		rep.Alg, rep.N, *calls, rep.Workload, *seed, rep.Steps)
	fmt.Println(sched.RenderTrace(rep.Trace, *n))

	fmt.Println("timestamps returned:")
	for _, ev := range rep.Events {
		fmt.Printf("  p%d.getTS#%d → %v\n", ev.Pid, ev.Seq, ev.Val)
	}
	if err := rep.Verify(); err != nil {
		fmt.Fprintf(os.Stderr, "tstrace: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("\nhappens-before property verified ✓")
	fmt.Println(report.Summary(rep))
}

// hasCrashEntry reports whether a parsed schedule contains crash points
// (the x<pid>/X<pid> tokens of tscheck's crash-mode witnesses).
func hasCrashEntry(entries []int) bool {
	for _, e := range entries {
		if _, _, isCrash := sched.DecodeCrash(e); isCrash {
			return true
		}
	}
	return false
}

// crashReplay replays a crash-schedule witness through the engine's
// fault-injection harness and renders the 2n-incarnation trace (scheduler
// pid n+p is the recovery incarnation of paper process p). It returns the
// process exit code: 1 when the witness reproduces a violation.
func crashReplay(alg timestamp.Algorithm, n, calls int, seed int64, entries []int) int {
	var wl engine.Workload = engine.LongLived{CallsPerProc: calls}
	if alg.OneShot() {
		wl = engine.OneShot{}
	}
	rep, err := engine.ReplayCrashSchedule(engine.Config{
		Alg: alg, World: engine.Simulated, N: n, Workload: wl, Seed: seed,
	}, entries)
	if rep == nil {
		fmt.Fprintf(os.Stderr, "tstrace: %v\n", err)
		return 2
	}

	fmt.Printf("%s, n=%d (+%d recovery incarnations), %d call(s) per process, %s — %d steps\n\n",
		rep.Alg, n, n, calls, rep.Workload, rep.Steps)
	fmt.Println(sched.RenderTrace(rep.Trace, 2*n))

	fmt.Println("timestamps returned (pids ≥ n are recovery incarnations):")
	for _, ev := range rep.Events {
		fmt.Printf("  p%d.getTS#%d → %v\n", ev.Pid, ev.Seq, ev.Val)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "\ntstrace: %v\n", err)
		return 1
	}
	fmt.Println("\nhappens-before property verified ✓")
	return 0
}
