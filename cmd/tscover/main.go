// Command tscover replays the lower-bound constructions of the paper
// (experiments E1, E2, E5, E6) and renders the Figure 1 / Figure 2 grids.
// Every replay goes through internal/engine, which validates the paper's
// bound on each construction centrally.
//
// Usage:
//
//	tscover -construct oneshot  -n 200  [-policy lowest-first] [-steps]
//	tscover -construct longlived -n 60  [-policy first-fit]
//	tscover -fig 1 -n 200
//	tscover -fig 2
//	tscover -phases -n 36 [-seed 3]    # E7: traced phase accounting
package main

import (
	"flag"
	"fmt"
	"os"

	"tsspace/internal/engine"
	"tsspace/internal/lowerbound"
	"tsspace/internal/timestamp/sqrt"
)

func main() {
	construct := flag.String("construct", "", "replay a construction: oneshot | longlived")
	fig := flag.Int("fig", 0, "render a figure: 1 | 2")
	n := flag.Int("n", 200, "number of processes")
	policyName := flag.String("policy", "lowest-first", "placement policy: lowest-first | highest-first | first-fit | random")
	seed := flag.Int64("seed", 1, "seed for the random policy / schedule")
	steps := flag.Bool("steps", false, "print every construction step")
	phasesMode := flag.Bool("phases", false, "trace Algorithm 4's phases on a batched random schedule (E7)")
	flag.Parse()

	switch {
	case *phasesMode:
		phases(*n, *seed)
	case *fig == 1:
		figure1(*n, pick(*policyName, *seed))
	case *fig == 2:
		figure2()
	case *construct == "oneshot":
		oneshot(*n, pick(*policyName, *seed), *steps)
	case *construct == "longlived":
		longlived(*n, pick(*policyName, *seed), *steps)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// phases runs n one-shot getTS calls on the engine's phased workload
// (batches of 3) with the phase tracer and prints the §6.3 accounting
// (experiment E7).
func phases(n int, seed int64) {
	alg := sqrt.New(n)
	tracer := &sqrt.ChronoTracer{}
	alg.SetTracer(tracer)
	run, err := engine.Run(engine.Config{
		Alg:      alg,
		World:    engine.Simulated,
		N:        n,
		Workload: engine.Phased{GroupSize: 3},
		Seed:     seed,
	})
	if err != nil {
		fail(err)
	}
	if err := run.Verify(); err != nil {
		fail(err)
	}
	rep, err := sqrt.AnalyzePhases(tracer.Events())
	if err != nil {
		fail(err)
	}
	if err := sqrt.VerifyCompletedPhases(rep); err != nil {
		fail(err)
	}
	fmt.Printf("Algorithm 4, M=%d calls, batched random schedule (seed %d):\n\n", n, seed)
	fmt.Println("phase  writes  invalidation writes   (Claim 6.10: completed phase ϕ has exactly ϕ)")
	for _, st := range rep.PerPhase {
		fmt.Printf("%5d  %6d  %19d\n", st.Phase, st.Writes, st.Invalidations)
	}
	fmt.Printf("\ntotal invalidation writes %d ≤ 2M = %d (Claim 6.13); %d phases, budget ⌈2√M⌉ = %d\n",
		rep.InvalidationWrites, 2*n, rep.Phases, alg.Registers())
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tscover: %v\n", err)
	os.Exit(1)
}

func pick(name string, seed int64) lowerbound.Policy {
	for _, p := range lowerbound.Policies(seed) {
		if p.Name() == name {
			return p
		}
	}
	fmt.Fprintf(os.Stderr, "tscover: unknown policy %q\n", name)
	os.Exit(2)
	return nil
}

func oneshot(n int, pol lowerbound.Policy, steps bool) {
	rep, err := engine.OneShotCover(n, pol)
	if err != nil {
		fail(err)
	}
	fmt.Printf("Theorem 1.2 construction: n=%d processes, m=⌊√2n⌋=%d registers, policy %s\n\n",
		n, rep.M, pol.Name())
	if steps {
		for _, st := range rep.Steps {
			fmt.Printf("step %d: case %d, %d block writes, %d placements, ν=%d → j=%d ℓ=%d (idle %d)\n",
				st.K, st.Case, st.BlockWrites, st.Placed, st.Nu, st.J, st.L, st.Idle)
		}
		fmt.Println()
	}
	last := rep.Steps[len(rep.Steps)-1]
	fmt.Println(lowerbound.Grid(last.Ordered(), last.L))
	fmt.Printf("final: j=%d registers covered (ℓ=%d, Case 2 occurred %d times ≤ log₂n)\n",
		rep.FinalJ, rep.FinalL, rep.Case2Count)
	fmt.Printf("Theorem 1.2 bound: ≥ m − log₂n − 2 = %d   ✓ (covered total: %d)\n",
		rep.Bound, rep.Covered())
}

func longlived(n int, pol lowerbound.Policy, steps bool) {
	rep, err := engine.LongLivedCover(n, pol)
	if err != nil {
		fail(err)
	}
	fmt.Printf("Theorem 1.1 construction: n=%d processes, policy %s\n\n", n, pol.Name())
	if steps {
		for _, st := range rep.Steps {
			fmt.Printf("step %d: +cover r%d (R3 had %d registers → %d block writers); sig sum %d\n",
				st.K, st.Register, st.R3Size, st.BlockWrite, st.Signature.Sum())
		}
		fmt.Println()
	}
	fmt.Printf("(3,%d)-configuration reached with %d fresh processes;\n", rep.K, rep.ProcessesUsed)
	fmt.Printf("registers covered: %d ≥ ⌊n/6⌋ = %d  ✓\n", rep.Covered, rep.Bound)
	fmt.Printf("signature space 4^m = %d bounds the Lemma 3.1 pigeonhole\n", rep.SignatureSpace)
}

func figure1(n int, pol lowerbound.Policy) {
	rep, err := engine.OneShotCover(n, pol)
	if err != nil {
		fail(err)
	}
	first := rep.Steps[0]
	fmt.Printf("Figure 1 — configuration C1 (n=%d, m=%d): column j=%d reaches the diagonal,\n", n, rep.M, first.J)
	fmt.Printf("so j registers are each covered by ≥ m−j processes.\n\n")
	fmt.Println(lowerbound.Grid(first.Ordered(), rep.M))
}

func figure2() {
	// The scripted Case 1 / Case 2 pair from the test suite: n=32, m=8.
	script := &lowerbound.Scripted{
		Moves: []int{
			0, 0, 0, 0, 0, 0,
			1, 1, 1, 1, 1, 1,
			2, 2, 2, 2,
			3, 3, 3,
			4, 4,
			2,
		},
		Fallback: lowerbound.HighestFirst{},
	}
	rep, err := engine.OneShotCoverQ(32, script, true)
	if err != nil {
		fail(err)
	}
	fmt.Println("Figure 2 — block-write step outcomes (n=32, m=8, scripted adversary)")
	for _, st := range rep.Steps {
		label := "Case 1: earlier columns keep height ≥ ℓ−j′"
		if st.Case == 2 {
			label = "Case 2: diagonal reached at column j+1 after two block writes; ℓ decreases"
		}
		fmt.Printf("\nstep %d (%s): bw=%d placed=%d ν=%d → j=%d ℓ=%d\n%s",
			st.K, label, st.BlockWrites, st.Placed, st.Nu, st.J, st.L,
			lowerbound.Grid(st.Ordered(), st.L))
	}
}
