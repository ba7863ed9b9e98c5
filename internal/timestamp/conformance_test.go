package timestamp_test

import (
	"errors"
	"fmt"
	"testing"

	"tsspace/internal/engine"
	"tsspace/internal/timestamp"
	"tsspace/internal/timestamp/collect"
	"tsspace/internal/timestamp/dense"
	"tsspace/internal/timestamp/simple"
	"tsspace/internal/timestamp/sqrt"
)

// The conformance suite drives every implementation through the engine —
// the replacement path for the deleted runner.go shims.

// seqTS runs n×calls strictly sequential getTS() calls on real memory.
func seqTS(alg timestamp.Algorithm, n, calls int, byProcess bool) ([]timestamp.Timestamp, error) {
	return engine.SequentialTimestamps(alg, n, calls, byProcess)
}

// runConcurrent is the maximal-contention real-goroutine run.
func runConcurrent(alg timestamp.Algorithm, n, calls int) (*engine.Report, error) {
	return engine.Run(engine.Config{
		Alg:      alg,
		World:    engine.Atomic,
		N:        n,
		Workload: engine.LongLived{CallsPerProc: calls},
	})
}

// cfgSim is the simulated-world config for exploration and sampling.
func cfgSim(alg timestamp.Algorithm, n, calls int, seed int64) engine.Config {
	return engine.Config{
		Alg:      alg,
		World:    engine.Simulated,
		N:        n,
		Workload: engine.LongLived{CallsPerProc: calls},
		Seed:     seed,
	}
}

// algsFor returns every implementation configured for n processes, paired
// with its guaranteed space bound (registers written).
type testAlg struct {
	alg        timestamp.Algorithm
	spaceBound int
}

func algsFor(n int) []testAlg {
	out := []testAlg{
		{collect.New(n), n},
		{simple.New(n), (n + 1) / 2},
		{sqrt.New(n), sqrt.RegistersFor(n) - 1}, // sentinel register never written
		// The M-bounded long-lived variant, budgeted for 4 calls per
		// process (the long-lived conformance cases use at most 4).
		{sqrt.NewBounded(4 * n), sqrt.RegistersFor(4*n) - 1},
	}
	if n >= 2 {
		out = append(out, testAlg{dense.New(n), n - 1})
	}
	return out
}

func TestSequentialStrictlyIncreasing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 33} {
		for _, ta := range algsFor(n) {
			alg := ta.alg
			t.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(t *testing.T) {
				for _, byProcess := range []bool{true, false} {
					calls := 3
					if alg.OneShot() {
						calls = 1
					}
					ts, err := seqTS(alg, n, calls, byProcess)
					if err != nil {
						t.Fatal(err)
					}
					if len(ts) != n*calls {
						t.Fatalf("got %d timestamps, want %d", len(ts), n*calls)
					}
					if err := timestamp.CheckStrictlyIncreasing(ts, alg.Compare); err != nil {
						t.Errorf("byProcess=%v: %v", byProcess, err)
					}
				}
			})
		}
	}
}

func TestConcurrentHappensBefore(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		for _, ta := range algsFor(n) {
			alg := ta.alg
			t.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(t *testing.T) {
				calls := 4
				if alg.OneShot() {
					calls = 1
				}
				for rep := 0; rep < 20; rep++ {
					report, err := runConcurrent(alg, n, calls)
					if err != nil {
						t.Fatal(err)
					}
					if len(report.Events) != n*calls {
						t.Fatalf("events = %d, want %d", len(report.Events), n*calls)
					}
					if err := report.Verify(alg.Compare); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

func TestSpaceBounds(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 9, 16, 25, 64, 100} {
		for _, ta := range algsFor(n) {
			alg := ta.alg
			t.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(t *testing.T) {
				calls := 2
				if alg.OneShot() {
					calls = 1
				}
				report, err := runConcurrent(alg, n, calls)
				if err != nil {
					t.Fatal(err)
				}
				if report.Space.Written > ta.spaceBound {
					t.Errorf("%s wrote %d registers, bound %d", alg.Name(), report.Space.Written, ta.spaceBound)
				}
			})
		}
	}
}

// Every registered algorithm, mutants included, orders the timestamps it
// issues exactly as Less does. Less is the order the public SDK exports
// (tsspace.Less) and every client applies locally in place of a remote
// compare, so an algorithm whose Compare disagreed on its own outputs
// fails here before any client sees it. The broker provisions mutants by
// name, so they are held to it too.
func TestCompareAgreesWithLess(t *testing.T) {
	for _, name := range timestamp.AllNames() {
		info, _ := timestamp.Lookup(name)
		for _, n := range []int{1, 2, 5, 16} {
			if n < info.MinProcs {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				// ExploreCalls is the per-process call count the algorithm
				// declares safe to repeat: 1 for one-shot objects and for
				// sqrt-broken-norepair, whose budget is n calls in total.
				alg, calls := info.New(n), info.ExploreCalls
				issued, err := seqTS(alg, n, calls, false)
				if err != nil {
					t.Fatal(err)
				}
				report, err := runConcurrent(info.New(n), n, calls)
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range report.Events {
					issued = append(issued, ev.Val)
				}
				for _, a := range issued {
					for _, b := range issued {
						if got, want := alg.Compare(a, b), timestamp.Less(a, b); got != want {
							t.Fatalf("Compare(%v, %v) = %v, Less says %v", a, b, got, want)
						}
					}
				}
			})
		}
	}
}

// Exhaustive model check: every interleaving of 2 processes × 1 getTS()
// satisfies the happens-before property, for every algorithm. The sqrt
// algorithm's longer programs make full enumeration expensive (the DFS
// replays a fresh execution per prefix), so its exploration is capped; the
// cheap algorithms are verified exhaustively.
func TestExhaustiveTwoProcessesOneShot(t *testing.T) {
	caps := map[string]int{"sqrt": 2000, "sqrt-bounded": 1000}
	for _, ta := range algsFor(4) {
		alg := ta.alg
		t.Run(alg.Name(), func(t *testing.T) {
			stats, err := engine.Exhaustive(cfgSim(alg, 2, 1, 0), engine.ExhaustiveOptions{MaxVisits: caps[alg.Name()]})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Visited < 2 {
				t.Errorf("only %d interleavings explored", stats.Visited)
			}
			t.Logf("%s: %d interleavings verified", alg.Name(), stats.Visited)
		})
	}
}

// Exhaustive model check with repetition for the long-lived algorithms:
// 2 processes × 2 getTS() each.
func TestExhaustiveTwoProcessesTwoCalls(t *testing.T) {
	for _, alg := range []timestamp.Algorithm{collect.New(2), dense.New(2)} {
		t.Run(alg.Name(), func(t *testing.T) {
			stats, err := engine.Exhaustive(cfgSim(alg, 2, 2, 0), engine.ExhaustiveOptions{MaxVisits: 3000})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d interleavings verified", alg.Name(), stats.Visited)
		})
	}
}

// Randomized schedules through the deterministic scheduler for mid-size
// systems.
func TestSampledSchedules(t *testing.T) {
	for _, n := range []int{3, 5} {
		for _, ta := range algsFor(n) {
			alg := ta.alg
			t.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(t *testing.T) {
				calls := 2
				if alg.OneShot() {
					calls = 1
				}
				if _, err := engine.Fuzz(cfgSim(alg, n, calls, int64(n)*7919), engine.FuzzOptions{Count: 50}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestOneShotEnforcement(t *testing.T) {
	for _, alg := range []timestamp.Algorithm{simple.New(4), sqrt.New(4)} {
		t.Run(alg.Name(), func(t *testing.T) {
			mem := timestamp.NewMem(alg)
			if _, err := alg.GetTS(mem, 0, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := alg.GetTS(mem, 0, 1); !errors.Is(err, timestamp.ErrOneShot) {
				t.Errorf("second call err = %v, want ErrOneShot", err)
			}
			if _, err := runConcurrent(alg, 2, 2); !errors.Is(err, engine.ErrOneShot) {
				t.Errorf("concurrent calls=2 err = %v, want engine.ErrOneShot", err)
			}
		})
	}
}

func TestPidRangeValidation(t *testing.T) {
	for _, ta := range algsFor(4) {
		alg := ta.alg
		// The sqrt variants accept any pid: getTS-ids p.k only need to be
		// distinct, not drawn from [0, n) (§6.1).
		if alg.Name() == "sqrt" || alg.Name() == "sqrt-bounded" {
			continue
		}
		t.Run(alg.Name(), func(t *testing.T) {
			mem := timestamp.NewMem(alg)
			if _, err := alg.GetTS(mem, -1, 0); err == nil {
				t.Error("negative pid accepted")
			}
			if _, err := alg.GetTS(mem, 99, 0); err == nil {
				t.Error("out-of-range pid accepted")
			}
		})
	}
}

// The headline space-gap shape (E8): the one-shot sqrt algorithm's ⌈2√n⌉
// crosses below simple's ⌈n/2⌉ at n ≈ 16 and below the long-lived lower
// bound's matching upper bounds immediately; asymptotically the gap is
// Θ(√n) vs Θ(n).
func TestSpaceGapShape(t *testing.T) {
	// Small n: simple wins or ties (2√n ≥ n/2 for n ≤ 16).
	for _, n := range []int{4, 9, 16} {
		if sq, si := sqrt.New(n).Registers(), simple.New(n).Registers(); sq < si {
			t.Errorf("n=%d: sqrt(%d) should not yet beat simple(%d)", n, sq, si)
		}
	}
	// n ≥ 20: sqrt strictly dominates everything.
	for n := 20; n <= 1024; n *= 2 {
		sq := sqrt.New(n).Registers()
		si := simple.New(n).Registers()
		co := collect.New(n).Registers()
		de := dense.New(n).Registers()
		if !(sq < si && si <= de && de < co) {
			t.Errorf("n=%d: want sqrt(%d) < simple(%d) <= dense(%d) < collect(%d)", n, sq, si, de, co)
		}
	}
}
