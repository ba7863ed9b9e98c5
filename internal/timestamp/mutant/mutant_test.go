package mutant_test

import (
	"testing"

	"tsspace/internal/timestamp"
	"tsspace/internal/timestamp/mutant"
)

// The mutant must look healthy in isolation: a process running solo keeps
// issuing strictly increasing timestamps (its own writes are remembered).
func TestStaleScanSoloPasses(t *testing.T) {
	alg := mutant.NewStaleScan(2)
	mem := timestamp.NewMem(alg)
	var prev timestamp.Timestamp
	for seq := 0; seq < 4; seq++ {
		ts, err := alg.GetTS(mem, 0, seq)
		if err != nil {
			t.Fatal(err)
		}
		if seq > 0 && !timestamp.Less(prev, ts) {
			t.Fatalf("solo call %d: %v not after %v", seq, ts, prev)
		}
		prev = ts
	}
}

// The bug, deterministically: p0's second call misses p1's timestamp and
// duplicates it, violating the ordering of two non-overlapping calls.
func TestStaleScanMissesOtherProcessesWrites(t *testing.T) {
	alg := mutant.NewStaleScan(2)
	mem := timestamp.NewMem(alg)
	t00, err := alg.GetTS(mem, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t10, err := alg.GetTS(mem, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	t01, err := alg.GetTS(mem, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !timestamp.Less(t00, t10) {
		t.Fatalf("first calls out of order: %v, %v", t00, t10)
	}
	// p1's completed call must be ordered before p0's later call — but the
	// stale scan returns a duplicate instead.
	if timestamp.Less(t10, t01) {
		t.Fatalf("mutant unexpectedly correct: %v < %v", t10, t01)
	}
	if t10 != t01 {
		t.Fatalf("expected the duplicate-timestamp failure mode, got %v vs %v", t10, t01)
	}
}
