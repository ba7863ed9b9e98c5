// Package tsspace_test is the benchmark harness of the reproduction: one
// benchmark per experiment in EXPERIMENTS.md (E1–E10), each regenerating
// the corresponding table row or figure series of the paper via
// b.ReportMetric. Every experiment runs through internal/engine — the
// benchmarks only pick an Algorithm × World × Workload combination and
// read the engine's report. Run with:
//
//	go test -bench=. -benchmem
package tsspace_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"tsspace"
	"tsspace/internal/adversary"
	"tsspace/internal/engine"
	"tsspace/internal/lowerbound"
	"tsspace/internal/timestamp"
	_ "tsspace/internal/timestamp/all" // rosters resolve through the registry
	"tsspace/internal/timestamp/sqrt"  // sqrt-specific experiment knobs (tracer, ablations)
)

// run is the benchmark-side shorthand for one engine run.
func run(b *testing.B, cfg engine.Config) *engine.Report {
	b.Helper()
	rep, err := engine.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// E1 — Theorem 1.1: the long-lived construction reaches a
// (3,⌊n/2⌋)-configuration covering ≥ ⌊n/6⌋ registers.
func BenchmarkE1_LongLivedLowerBound(b *testing.B) {
	for _, n := range []int{60, 600, 6000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var covered, bound int
			for i := 0; i < b.N; i++ {
				rep, err := engine.LongLivedCover(n, lowerbound.FirstFit{})
				if err != nil {
					b.Fatal(err)
				}
				covered, bound = rep.Covered, rep.Bound
			}
			b.ReportMetric(float64(covered), "registersCovered")
			b.ReportMetric(float64(bound), "paperBound")
		})
	}
}

// E2 — Theorem 1.2: the one-shot construction covers
// j_last ≥ ⌊√2n⌋ − log₂n − 2 registers, with Case 2 occurring ≤ log₂n
// times.
func BenchmarkE2_OneShotLowerBound(b *testing.B) {
	for _, n := range []int{50, 500, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rep *lowerbound.OneShotReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = engine.OneShotCover(n, lowerbound.LowestFirst{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.FinalJ), "registersCovered")
			b.ReportMetric(float64(rep.Bound), "paperBound")
			b.ReportMetric(float64(rep.M), "gridWidth_m")
			b.ReportMetric(float64(rep.Case2Count), "case2")
		})
	}
}

// E3 — Theorem 1.3 / §6: space of Algorithm 4 across schedules: the
// sequential √(2M) series, the stale-release adversary, and the ⌈2√M⌉
// budget.
func BenchmarkE3_SqrtSpace(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var seq int
			var adv *adversary.Result
			for i := 0; i < b.N; i++ {
				var err error
				seq, err = adversary.MeasureSequential(n)
				if err != nil {
					b.Fatal(err)
				}
				adv, err = adversary.StaleRelease(n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(seq), "registersSequential")
			b.ReportMetric(float64(adv.Written), "registersAdversarial")
			b.ReportMetric(float64(timestamp.MustNew("sqrt", n).Registers()), "budget_2sqrtM")
		})
	}
}

// E4 — §5: the simple algorithm writes exactly ⌈n/2⌉ registers.
func BenchmarkE4_SimpleSpace(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var written int
			for i := 0; i < b.N; i++ {
				rep := run(b, engine.Config{
					Alg: timestamp.MustNew("simple", n), World: engine.Atomic, N: n, Workload: engine.OneShot{},
				})
				written = rep.Space.Written
			}
			b.ReportMetric(float64(written), "registersWritten")
			b.ReportMetric(float64((n+1)/2), "paperBound")
		})
	}
}

// E5 — Figure 1: the first construction step reaches the stepped diagonal
// at column j₁.
func BenchmarkE5_Figure1(b *testing.B) {
	const n = 200
	var j1, m int
	for i := 0; i < b.N; i++ {
		rep, err := engine.OneShotCover(n, lowerbound.LowestFirst{})
		if err != nil {
			b.Fatal(err)
		}
		first := rep.Steps[0]
		if lowerbound.DiagonalColumn(first.Ordered(), rep.M) == 0 {
			b.Fatal("no diagonal column in C1")
		}
		j1, m = first.J, rep.M
	}
	b.ReportMetric(float64(j1), "diagonalColumn_j1")
	b.ReportMetric(float64(m), "gridWidth_m")
}

// E6 — Figure 2: the scripted adversary exhibits a Case 2 step (ν=1 after
// two block writes, decrementing ℓ).
func BenchmarkE6_Figure2(b *testing.B) {
	var case2 int
	for i := 0; i < b.N; i++ {
		script := &lowerbound.Scripted{
			Moves: []int{
				0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1,
				2, 2, 2, 2, 3, 3, 3, 4, 4, 2,
			},
			Fallback: lowerbound.HighestFirst{},
		}
		rep, err := engine.OneShotCoverQ(32, script, true)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Case2Count == 0 {
			b.Fatal("scripted Case 2 did not occur")
		}
		case2 = rep.Case2Count
	}
	b.ReportMetric(float64(case2), "case2Steps")
}

// E7 — Claims 6.8–6.13: invalidation writes stay ≤ 2M and completed phases
// ϕ carry exactly ϕ invalidation writes, measured with the phase tracer on
// the engine's phased workload (batches of 3 processes interleave
// randomly; full uniform concurrency would collapse everyone into phase 1
// and prove nothing).
func BenchmarkE7_InvalidationWrites(b *testing.B) {
	for _, n := range []int{18, 66} {
		b.Run(fmt.Sprintf("M=%d", n), func(b *testing.B) {
			var inv, phases int
			for i := 0; i < b.N; i++ {
				alg := sqrt.New(n)
				tracer := &sqrt.ChronoTracer{}
				alg.SetTracer(tracer)
				rep := run(b, engine.Config{
					Alg:      alg,
					World:    engine.Simulated,
					N:        n,
					Workload: engine.Phased{GroupSize: 3},
					Seed:     int64(i) + 1,
				})
				if err := rep.Verify(); err != nil {
					b.Fatal(err)
				}
				prep, err := sqrt.AnalyzePhases(tracer.Events())
				if err != nil {
					b.Fatal(err)
				}
				if err := sqrt.VerifyCompletedPhases(prep); err != nil {
					b.Fatal(err)
				}
				if prep.InvalidationWrites > 2*n {
					b.Fatalf("invalidation writes %d > 2M = %d", prep.InvalidationWrites, 2*n)
				}
				inv, phases = prep.InvalidationWrites, prep.Phases
			}
			b.ReportMetric(float64(inv), "invalidationWrites")
			b.ReportMetric(float64(2*n), "bound_2M")
			b.ReportMetric(float64(phases), "phases")
		})
	}
}

// E8 — the headline gap: registers written by each implementation as n
// grows (Θ(√n) one-shot vs Θ(n) long-lived).
func BenchmarkE8_SpaceGap(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		var algs []timestamp.Algorithm
		for _, name := range []string{"collect", "dense", "simple", "sqrt"} {
			algs = append(algs, timestamp.MustNew(name, n))
		}
		for _, alg := range algs {
			b.Run(fmt.Sprintf("n=%d/%s", n, alg.Name()), func(b *testing.B) {
				var wl engine.Workload = engine.OneShot{}
				if !alg.OneShot() {
					wl = engine.LongLived{CallsPerProc: 2}
				}
				var written int
				for i := 0; i < b.N; i++ {
					rep := run(b, engine.Config{
						Alg: alg, World: engine.Atomic, N: n, Workload: wl,
					})
					written = rep.Space.Written
				}
				b.ReportMetric(float64(written), "registersWritten")
				b.ReportMetric(float64(lowerbound.LongLivedLower(n)), "LB_longlived")
				b.ReportMetric(float64(lowerbound.OneShotLower(n)), "LB_oneshot")
			})
		}
	}
}

// E9 — §7: the M-bounded generalization: M total calls spread over fewer
// processes still fit in ⌈2√M⌉ registers.
func BenchmarkE9_MBounded(b *testing.B) {
	const procs, callsPer = 8, 32 // M = 256
	m := procs * callsPer
	var written int
	for i := 0; i < b.N; i++ {
		alg := sqrt.NewBounded(m)
		rep := run(b, engine.Config{
			Alg: alg, World: engine.Atomic, N: procs,
			Workload: engine.LongLived{CallsPerProc: callsPer},
		})
		if rep.Space.Written > alg.Registers()-1 {
			b.Fatalf("wrote %d registers, budget %d", rep.Space.Written, alg.Registers())
		}
		written = rep.Space.Written
	}
	b.ReportMetric(float64(written), "registersWritten")
	b.ReportMetric(float64(sqrt.RegistersFor(m)), "budget")
}

// E10 — throughput under real goroutine contention (engineering sanity,
// not from the paper).
func BenchmarkGetTS_Collect(b *testing.B) {
	benchThroughput(b, func(n int) timestamp.Algorithm { return timestamp.MustNew("collect", n) })
}

// BenchmarkGetTS_Dense measures the n−1-register long-lived baseline.
func BenchmarkGetTS_Dense(b *testing.B) {
	benchThroughput(b, func(n int) timestamp.Algorithm { return timestamp.MustNew("dense", n) })
}

func benchThroughput(b *testing.B, mk func(int) timestamp.Algorithm) {
	const callsPer = 64
	for _, n := range []int{4, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg := mk(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Unmetered: this experiment measures the algorithm's own
				// contention, and a metered handle adds a counter add to
				// every register operation.
				run(b, engine.Config{
					Alg: alg, World: engine.Atomic, N: n,
					Workload:  engine.LongLived{CallsPerProc: callsPer},
					Unmetered: true,
				})
			}
			perCall(b, n*callsPer)
		})
	}
}

// perCall reports latency and throughput per getTS call for benchmarks
// whose unit of iteration is a whole engine run of callsPerRun calls.
func perCall(b *testing.B, callsPerRun int) {
	calls := float64(b.N) * float64(callsPerRun)
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(calls/secs, "getTS/s")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/calls, "ns/getTS")
}

// BenchmarkGetTS_SqrtOneShot measures one-shot issue latency: each engine
// run issues the M timestamps of a fresh object sequentially.
func BenchmarkGetTS_SqrtOneShot(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b, engine.Config{
					Alg: timestamp.MustNew("sqrt", n), World: engine.Atomic, N: n,
					Workload: engine.Sequential{}, Unmetered: true,
				})
			}
			perCall(b, n)
		})
	}
}

// BenchmarkGetTS_Simple measures one-shot issue latency of the §5
// algorithm.
func BenchmarkGetTS_Simple(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b, engine.Config{
					Alg: timestamp.MustNew("simple", n), World: engine.Atomic, N: n,
					Workload: engine.Sequential{}, Unmetered: true,
				})
			}
			perCall(b, n)
		})
	}
}

// BenchmarkSession_GetTS_Parallel measures the public SDK's hot path under
// real parallel sessions: attach once per worker, then GetTS back to back.
// Unlike BenchmarkGetTS_* (one engine run per iteration), the unit of
// iteration here is a single getTS call, so ns/op and allocs/op read
// directly as per-call costs — the numbers the recorded trajectory tracks.
func BenchmarkSession_GetTS_Parallel(b *testing.B) {
	ctx := context.Background()
	for _, alg := range []string{"collect", "dense"} {
		b.Run(alg, func(b *testing.B) {
			// One paper-process per parallel worker, so Attach never
			// blocks regardless of GOMAXPROCS.
			procs := runtime.GOMAXPROCS(0) * 2
			obj, err := tsspace.New(tsspace.WithAlgorithm(alg), tsspace.WithProcs(procs))
			if err != nil {
				b.Fatal(err)
			}
			defer obj.Close()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				s, err := obj.Attach(ctx)
				if err != nil {
					b.Error(err)
					return
				}
				defer s.Detach()
				for pb.Next() {
					if _, err := s.GetTS(ctx); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkSession_GetTSBatch prices batch amortization on the SDK hot
// path: one op is one GetTSBatch of the given size into a caller-owned
// buffer, under real parallel sessions on the scalar register array.
// allocs/op must be 0 at every size (the v2 acceptance bar); the
// ns/ts metric is the per-timestamp cost the EXPERIMENTS.md E13 table
// tracks — batch=1 pays the full per-call guard tax, batch=256 amortizes
// it to noise, and the register accesses per timestamp (the paper's
// measure) are identical at every size. The last case is the
// configuration tsserved ships: collect at n = 64 with metering on.
func BenchmarkSession_GetTSBatch(b *testing.B) {
	ctx := context.Background()
	procs := runtime.GOMAXPROCS(0) * 2
	for _, c := range []struct {
		name string
		size int
		opts []tsspace.Option
	}{
		{"batch=1", 1, []tsspace.Option{tsspace.WithProcs(procs)}},
		{"batch=16", 16, []tsspace.Option{tsspace.WithProcs(procs)}},
		{"batch=256", 256, []tsspace.Option{tsspace.WithProcs(procs)}},
		{"batch=256/n=64/metered", 256, []tsspace.Option{tsspace.WithProcs(64), tsspace.WithMetering()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			obj, err := tsspace.New(c.opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer obj.Close()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				s, err := obj.Attach(ctx)
				if err != nil {
					b.Error(err)
					return
				}
				defer s.Detach()
				buf := make([]tsspace.Timestamp, c.size)
				for pb.Next() {
					if _, err := s.GetTSBatch(ctx, buf); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(c.size)), "ns/ts")
		})
	}
}

// BenchmarkObjectNew prices provisioning one object, which the broker
// pays on every namespace it creates and, in the one-shot regime, again
// whenever a namespace runs out. One op is one metered New plus Close;
// pid state is built on first lease, so allocs/op stays flat in n and
// ns/op and B/op grow only with the register array, the writer table
// and the free channel (EXPERIMENTS.md E19).
func BenchmarkObjectNew(b *testing.B) {
	for _, alg := range []string{"collect", "sqrt"} {
		for _, n := range []int{64, 4096, 65536} {
			b.Run(fmt.Sprintf("%s/n=%d", alg, n), func(b *testing.B) {
				opts := []tsspace.Option{tsspace.WithAlgorithm(alg), tsspace.WithProcs(n), tsspace.WithMetering()}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					obj, err := tsspace.New(opts...)
					if err != nil {
						b.Fatal(err)
					}
					obj.Close()
				}
			})
		}
	}
}

// Ablation — the line 10–11 repair's write overhead: sequential executions
// never exercise the repair, so both variants write identically; the
// interesting comparison is steps under contention, where only the
// repaired variant is correct (see TestScenario61BrokenVariantViolates).
func BenchmarkAblationRepairWrites(b *testing.B) {
	const n = 256
	for _, repair := range []bool{true, false} {
		name := "with-repair"
		alg := sqrt.NewBounded(n)
		if !repair {
			name = "without-repair"
			alg = sqrt.NewWithoutRepair(n)
		}
		b.Run(name, func(b *testing.B) {
			var writes uint64
			for i := 0; i < b.N; i++ {
				rep := run(b, engine.Config{
					Alg: alg, World: engine.Atomic, N: n,
					Workload: engine.Sequential{},
				})
				writes = rep.Space.Writes
			}
			b.ReportMetric(float64(writes), "totalWrites")
		})
	}
}
