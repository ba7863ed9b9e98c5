package engine_test

import (
	"errors"
	"reflect"
	"testing"

	"tsspace/internal/engine"
	"tsspace/internal/hbcheck"
	"tsspace/internal/mc"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
	"tsspace/internal/timestamp/collect"
	"tsspace/internal/timestamp/dense"
	"tsspace/internal/timestamp/mutant"
	"tsspace/internal/timestamp/simple"
	"tsspace/internal/timestamp/sqrt"
)

// crashRoster is the torn-write conformance roster: every simulable
// registry algorithm, with its long-lived call count and minimum n.
var crashRoster = []rosterEntry{
	{"collect", func(n int) timestamp.Algorithm { return collect.New(n) }, 2, 1},
	{"dense", func(n int) timestamp.Algorithm { return dense.New(n) }, 2, 2},
	{"simple", func(n int) timestamp.Algorithm { return simple.New(n) }, 1, 1},
	{"sqrt", func(n int) timestamp.Algorithm { return sqrt.New(n) }, 1, 1},
}

// TestCrashSweepNonMutantsSurvive injects one crash at every point of
// every victim's operation sequence, both torn-write outcomes, at n=2 and
// n=3: no correct algorithm may produce a happens-before violation or
// lose a pid's remaining calls.
func TestCrashSweepNonMutantsSurvive(t *testing.T) {
	for _, entry := range crashRoster {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{2, 3} {
				if n < entry.minN {
					continue
				}
				alg := entry.new(n)
				var wl engine.Workload = engine.LongLived{CallsPerProc: entry.calls}
				if alg.OneShot() {
					wl = engine.OneShot{}
				}
				cfg := engine.Config{Alg: alg, World: engine.Simulated, N: n, Workload: wl}
				runs, err := engine.CrashSweep(cfg, engine.CrashSweepOptions{
					Shrink: true,
					NewAlg: func() timestamp.Algorithm { return entry.new(n) },
				})
				if err != nil {
					t.Errorf("n=%d: crash sweep failed after %d runs: %v", n, runs, err)
				}
				if runs == 0 {
					t.Errorf("n=%d: crash sweep ran no executions", n)
				}
			}
		})
	}
}

// TestCrashFuzzNonMutantsSurvive drives random interleavings with random
// crash points at a larger n.
func TestCrashFuzzNonMutantsSurvive(t *testing.T) {
	for _, entry := range crashRoster {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			t.Parallel()
			n := 5
			alg := entry.new(n)
			var wl engine.Workload = engine.LongLived{CallsPerProc: entry.calls}
			if alg.OneShot() {
				wl = engine.OneShot{}
			}
			cfg := engine.Config{Alg: alg, World: engine.Simulated, N: n, Workload: wl, Seed: 13}
			rep, err := engine.CrashFuzz(cfg, engine.CrashFuzzOptions{
				Count:   25,
				Crashes: 2,
				Shrink:  true,
				NewAlg:  func() timestamp.Algorithm { return entry.new(n) },
			})
			if err != nil {
				t.Fatalf("crash fuzz failed after %d schedules: %v", rep.Schedules, err)
			}
			if rep.Schedules != 25 {
				t.Errorf("schedules = %d, want 25", rep.Schedules)
			}
		})
	}
}

// TestCrashSweepCatchesCrashMemoMutant is the validator's validator: the
// crash-checkpoint mutant is invisible to every crash-free harness (it is
// collect until a call is retried) and must be caught by the sweep, with
// a shrunk crash schedule that replays the violation verbatim.
func TestCrashSweepCatchesCrashMemoMutant(t *testing.T) {
	n := 2
	newAlg := func() timestamp.Algorithm { return mutant.NewCrashMemo(n) }
	cfg := engine.Config{Alg: newAlg(), World: engine.Simulated, N: n, Workload: engine.OneShot{}}

	// Sanity: crash-free exploration does NOT catch it (the memo never hits).
	if _, err := engine.Exhaustive(cfg, engine.ExhaustiveOptions{
		POR: true, NewAlg: newAlg,
	}); err != nil {
		t.Fatalf("crash-free exploration flagged the crash-only mutant: %v", err)
	}

	_, err := engine.CrashSweep(cfg, engine.CrashSweepOptions{Shrink: true, NewAlg: newAlg})
	var cex *engine.Counterexample
	if !errors.As(err, &cex) {
		t.Fatalf("crash sweep on collect-crash-memo = %v, want *Counterexample", err)
	}
	hasCrash := false
	for _, e := range cex.Schedule {
		if _, _, isCrash := sched.DecodeCrash(e); isCrash {
			hasCrash = true
		}
	}
	if !hasCrash {
		t.Errorf("counterexample %v contains no crash entry", cex.Schedule)
	}

	// The witness round-trips through the textual artifact format and
	// replays to the same class of violation on a fresh instance.
	text := sched.FormatCrashSchedule(cex.Schedule)
	entries, perr := sched.ParseCrashSchedule(text)
	if perr != nil {
		t.Fatalf("witness %q does not re-parse: %v", text, perr)
	}
	replayCfg := cfg
	replayCfg.Alg = newAlg()
	if _, rerr := engine.ReplayCrashSchedule(replayCfg, entries); rerr == nil {
		t.Fatalf("witness %q does not reproduce the violation on replay", text)
	}

	// Shrinking is deletion-1-minimal: every remaining entry is needed.
	for i := range cex.Schedule {
		cand := append(append([]int(nil), cex.Schedule[:i]...), cex.Schedule[i+1:]...)
		c := cfg
		c.Alg = newAlg()
		if _, rerr := engine.ReplayCrashSchedule(c, cand); rerr != nil {
			t.Fatalf("witness not 1-minimal: still fails without entry %d (%v)", i, cand)
		}
	}
}

// TestCrashFuzzCatchesStaleScanMutant: the stale-scan bug needs no crash
// at all, and the crash harness must still see it — fault injection adds
// failure modes without masking the ordinary ones.
func TestCrashFuzzCatchesStaleScanMutant(t *testing.T) {
	n := 3
	newAlg := func() timestamp.Algorithm { return mutant.NewStaleScan(n) }
	cfg := engine.Config{
		Alg: newAlg(), World: engine.Simulated, N: n,
		Workload: engine.LongLived{CallsPerProc: 2}, Seed: 3,
	}
	_, err := engine.CrashFuzz(cfg, engine.CrashFuzzOptions{
		Count: 50, Crashes: 1, Shrink: true, NewAlg: newAlg,
	})
	var cex *engine.Counterexample
	if !errors.As(err, &cex) {
		t.Fatalf("crash fuzz on collect-stale-scan = %v, want *Counterexample", err)
	}
}

// TestReplayCrashScheduleLenient: witness replay skips entries that no
// longer apply (terminated pids, double crashes, out-of-range ids), the
// property every ddmin candidate relies on.
func TestReplayCrashScheduleLenient(t *testing.T) {
	n := 2
	cfg := engine.Config{
		Alg: collect.New(n), World: engine.Simulated, N: n, Workload: engine.OneShot{},
	}
	entries := []int{0, 99, sched.CrashDrop(7), sched.CrashDrop(0), sched.CrashDrop(0), 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2}
	rep, err := engine.ReplayCrashSchedule(cfg, entries)
	if err != nil {
		t.Fatalf("lenient replay failed: %v", err)
	}
	if rep.Steps == 0 {
		t.Error("replay executed no steps")
	}
}

// FuzzReplayCrashSchedule generalises TestReplayCrashScheduleLenient to
// arbitrary entries: each byte is one small schedule entry in -7..7 (a
// step of one of the four scheduler pids or of an out-of-range one, or a
// crash of paper pid 0..3, dropping or applying its pending write), and
// the entries are replayed on collect n=2 × 2 calls. Every ddmin
// candidate, crash-free or not, relies on this leniency: the replay must
// return a report with either no error or a property violation — never a
// harness error or a panic — and two replays of the same entries must
// execute the same trace.
func FuzzReplayCrashSchedule(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1},
		{0, 0xff, 2, 2, 2, 1, 1, 1},          // crash p0 dropping its write
		{0, 0, 0xfe, 0xfe, 2, 2, 2, 2, 2, 2}, // crash p0 applying it, then again
		{0, 7, 0xf9, 0xff, 0xff, 0, 1, 1, 1, 2, 2, 2},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64] // bound replay work
		}
		entries := make([]int, len(data))
		for i, b := range data {
			entries[i] = int(int8(b)) % 8
		}
		replay := func() *engine.Report {
			const n = 2
			rep, err := engine.ReplayCrashSchedule(engine.Config{
				Alg: collect.New(n), World: engine.Simulated, N: n,
				Workload: engine.LongLived{CallsPerProc: 2},
			}, entries)
			if rep == nil {
				t.Fatalf("replay of %v: harness error: %v", entries, err)
			}
			var cv mc.Violation
			var hv hbcheck.Violation
			if err != nil && !errors.As(err, &cv) && !errors.As(err, &hv) {
				t.Fatalf("replay of %v: %v, want nil or a property violation", entries, err)
			}
			return rep
		}
		if a, b := replay(), replay(); !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Fatalf("replay of %v not deterministic:\n%v\nvs\n%v", entries, a.Trace, b.Trace)
		}
	})
}
