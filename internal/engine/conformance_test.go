package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"tsspace/internal/engine"
	"tsspace/internal/mc"
	"tsspace/internal/timestamp"
	"tsspace/internal/timestamp/collect"
	"tsspace/internal/timestamp/dense"
	"tsspace/internal/timestamp/fas"
	"tsspace/internal/timestamp/mutant"
	"tsspace/internal/timestamp/simple"
	"tsspace/internal/timestamp/sqrt"
)

// The conformance roster: every timestamp implementation in the
// repository, each with a constructor and its long-lived call count (1 for
// one-shot objects).
type rosterEntry struct {
	name  string
	new   func(n int) timestamp.Algorithm
	calls int
	minN  int // dense needs n ≥ 2
}

var roster = []rosterEntry{
	{"collect", func(n int) timestamp.Algorithm { return collect.New(n) }, 2, 1},
	{"dense", func(n int) timestamp.Algorithm { return dense.New(n) }, 2, 2},
	{"simple", func(n int) timestamp.Algorithm { return simple.New(n) }, 1, 1},
	{"sqrt", func(n int) timestamp.Algorithm { return sqrt.New(n) }, 1, 1},
	{"fas", func(n int) timestamp.Algorithm { return fas.New(n) }, 2, 1},
}

// exploreStats pins every simulated exhaustive leg of TestConformanceMatrix
// to the exploration the E11 table records (EXPERIMENTS.md), keyed by
// algorithm and n. The counts are a fingerprint of the step sequence a
// simulated run produces: a middleware layer that gates a scheduler step,
// or an extra register access, shifts them.
var exploreStats = map[string]map[int]mc.Stats{
	"collect": {2: stats(19, 169, 63, 0, 169, 12), 3: stats(22, 276, 217, 0, 276, 12)},
	"dense":   {2: stats(6, 28, 5, 0, 28, 6), 3: stats(11, 88, 58, 0, 88, 8)},
	"simple":  {2: stats(8, 40, 7, 0, 40, 6), 3: stats(96, 1298, 1103, 0, 1298, 12)},
	"sqrt":    {2: stats(8, 124, 57, 0, 124, 18), 3: stats(150, 6118, 5319, 0, 6118, 38)},
}

func stats(visited, nodes, sleepPruned, hashPruned, states, maxDepth int) mc.Stats {
	return mc.Stats{Visited: visited, Nodes: nodes, SleepPruned: sleepPruned,
		HashPruned: hashPruned, States: states, MaxDepth: maxDepth}
}

// TestConformanceMatrix runs every algorithm through the unified driver:
// exhaustive POR exploration at n=2 (long-lived call counts) and n=3
// (one-shot shape), plus seeded fuzzing at n=8. Each simulated exhaustive
// leg must explore exactly the pinned exploreStats. fas is not simulable
// and must be substituted with atomic-world stress rather than silently
// skipped.
func TestConformanceMatrix(t *testing.T) {
	for _, entry := range roster {
		t.Run(entry.name, func(t *testing.T) {
			var results []engine.ConformanceResult
			// n=2 with the algorithm's long-lived call count.
			if entry.minN <= 2 {
				results = append(results, engine.Conformance(engine.ConformanceSpec{
					New:          entry.new,
					ExhaustiveNs: []int{2},
					Calls:        entry.calls,
					MaxVisits:    50_000,
					Seed:         7,
					POR:          true,
					Shrink:       true,
				})...)
			}
			// n=3 one-shot shape plus the fuzzing leg at n=8.
			results = append(results, engine.Conformance(engine.ConformanceSpec{
				New:          entry.new,
				ExhaustiveNs: []int{3},
				Calls:        1,
				MaxVisits:    50_000,
				FuzzN:        8,
				FuzzCount:    25,
				Seed:         11,
				POR:          true,
				Shrink:       true,
			})...)

			if len(results) < 3 {
				t.Fatalf("only %d conformance legs ran", len(results))
			}
			for _, r := range results {
				tag := fmt.Sprintf("%s %s n=%d×%d (%s world)", r.Alg, r.Mode, r.N, r.Calls, r.World)
				if r.Err != nil {
					t.Errorf("%s: %v", tag, r.Err)
					continue
				}
				checked := r.Stats.Visited + r.Schedules
				if checked == 0 {
					t.Errorf("%s: checked nothing", tag)
				}
				t.Logf("%s: %d executions ok (%v)", tag, checked, r.Stats)
				if r.Mode == "exhaustive" && r.World == engine.Simulated {
					if want, ok := exploreStats[entry.name][r.N]; !ok {
						t.Errorf("%s: no pinned exploration stats", tag)
					} else if r.Stats != want {
						t.Errorf("%s: explored %v, want %v", tag, r.Stats, want)
					}
				}
			}
			// fas must have been re-routed to the atomic world.
			if entry.name == "fas" {
				for _, r := range results {
					if r.Mode == "exhaustive" && (r.World != engine.Atomic || r.Skipped == "") {
						t.Errorf("fas exhaustive leg not substituted: world=%v skipped=%q", r.World, r.Skipped)
					}
				}
			}
		})
	}
}

// TestPORReduction is the headline acceptance bound: on the same 3-process
// workload, POR exploration must visit at most 20% of the schedules the
// naive DFS (Exhaustive with POR off) visits. (In practice it is far
// below: tens vs tens of thousands.) The naive counts are E11's naive
// column.
func TestPORReduction(t *testing.T) {
	cases := []struct {
		name  string
		alg   timestamp.Algorithm
		n     int
		naive int
	}{
		{"dense", dense.New(3), 3, 560},
		{"collect", collect.New(3), 3, 34650},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := engine.Config{
				Alg: c.alg, World: engine.Simulated, N: c.n, Workload: engine.OneShot{},
			}
			naiveStats, err := engine.Exhaustive(cfg, engine.ExhaustiveOptions{})
			if err != nil {
				t.Fatalf("naive: %v", err)
			}
			naive := naiveStats.Visited
			if naive != c.naive {
				t.Errorf("naive DFS visited %d schedules, want %d (E11)", naive, c.naive)
			}
			stats, err := engine.Exhaustive(cfg, engine.ExhaustiveOptions{POR: true})
			if err != nil {
				t.Fatalf("POR: %v", err)
			}
			t.Logf("%s n=%d: naive %d vs POR %d visits (%.2f%%)",
				c.name, c.n, naive, stats.Visited, 100*float64(stats.Visited)/float64(naive))
			if stats.Visited*5 > naive {
				t.Errorf("POR visited %d of %d naive schedules, want ≤ 20%%", stats.Visited, naive)
			}
			if stats.SleepPruned == 0 {
				t.Error("no sleep-set pruning recorded")
			}
		})
	}
}

// TestMutantCaughtAndShrunk: the stale-scan mutant passes solo and
// sequential-by-process runs, but exhaustive exploration must find a
// violation and shrink it to a ≤ 12-step counterexample that replays
// deterministically.
func TestMutantCaughtAndShrunk(t *testing.T) {
	const n = 2
	newMutant := func() timestamp.Algorithm { return mutant.NewStaleScan(n) }
	cfg := engine.Config{
		Alg:      newMutant(),
		World:    engine.Simulated,
		N:        n,
		Workload: engine.LongLived{CallsPerProc: 2},
	}

	// Sanity: the by-process sequential baseline does NOT catch it.
	seq := cfg
	seq.Alg = newMutant()
	seq.Workload = engine.Sequential{CallsPerProc: 2}
	rep, err := engine.Run(seq)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if err := rep.Verify(seq.Alg.Compare); err != nil {
		t.Fatalf("mutant too broken: sequential baseline already fails: %v", err)
	}

	_, err = engine.Exhaustive(cfg, engine.ExhaustiveOptions{
		POR: true, Shrink: true, NewAlg: newMutant,
	})
	var cex *engine.Counterexample
	if !errors.As(err, &cex) {
		t.Fatalf("exploration err = %v, want *Counterexample", err)
	}
	if cex.Steps > 12 {
		t.Errorf("shrunk counterexample has %d steps (%v), want ≤ 12", cex.Steps, cex.Schedule)
	}
	var v mc.Violation[timestamp.Timestamp]
	if !errors.As(cex.Err, &v) {
		t.Errorf("counterexample cause = %v, want a causal violation", cex.Err)
	}
	t.Logf("mutant counterexample (%d steps): %v — %v", cex.Steps, cex.Schedule, cex.Err)

	// The shrunk schedule must replay to the same failure through the
	// public Adversarial workload path.
	replay := engine.Config{
		Alg:      newMutant(),
		World:    engine.Simulated,
		N:        n,
		Workload: engine.Adversarial{Schedule: cex.Schedule, CallsPerProc: 2},
	}
	rep2, err := engine.Run(replay)
	if err != nil {
		t.Fatalf("replaying counterexample: %v", err)
	}
	if err := rep2.Verify(replay.Alg.Compare); err == nil {
		t.Error("counterexample schedule verified clean on replay")
	}
}

// The mutant must also fall to plain seeded fuzzing at larger n.
func TestMutantCaughtByFuzz(t *testing.T) {
	const n = 4
	newMutant := func() timestamp.Algorithm { return mutant.NewStaleScan(n) }
	cfg := engine.Config{
		Alg:      newMutant(),
		World:    engine.Simulated,
		N:        n,
		Workload: engine.LongLived{CallsPerProc: 2},
		Seed:     3,
	}
	_, err := engine.Fuzz(cfg, engine.FuzzOptions{
		Count: 50, Shrink: true, NewAlg: newMutant,
	})
	var cex *engine.Counterexample
	if !errors.As(err, &cex) {
		t.Fatalf("fuzz err = %v, want *Counterexample", err)
	}
	if cex.Steps > 12 {
		t.Errorf("fuzz counterexample has %d steps after shrinking, want ≤ 12", cex.Steps)
	}
	t.Logf("fuzz counterexample (%d steps): %v", cex.Steps, cex.Schedule)
}

// Exhaustive must reject configurations the scheduler cannot express.
func TestExhaustiveRejectsNonSimulable(t *testing.T) {
	cfg := engine.Config{
		Alg: fas.New(2), World: engine.Simulated, N: 2, Workload: engine.OneShot{},
	}
	if _, err := engine.Exhaustive(cfg, engine.ExhaustiveOptions{}); !errors.Is(err, engine.ErrNeedsAtomic) {
		t.Errorf("err = %v, want ErrNeedsAtomic", err)
	}
}

// Fuzzing a correct algorithm must report the work it did.
func TestFuzzReportsWork(t *testing.T) {
	cfg := engine.Config{
		Alg: collect.New(3), World: engine.Simulated, N: 3,
		Workload: engine.LongLived{CallsPerProc: 2}, Seed: 5,
	}
	rep, err := engine.Fuzz(cfg, engine.FuzzOptions{Count: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedules != 20 || rep.Steps == 0 || rep.World != engine.Simulated {
		t.Errorf("unexpected fuzz report: %+v", rep)
	}
}
