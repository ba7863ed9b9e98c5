package timestamp_test

import (
	"testing"

	"tsspace/internal/register"
	"tsspace/internal/timestamp"
	_ "tsspace/internal/timestamp/all"
)

func TestLessLexicographic(t *testing.T) {
	type ts = timestamp.Timestamp
	cases := []struct {
		a, b ts
		want bool
	}{
		{ts{1, 5}, ts{2, 0}, true},
		{ts{2, 0}, ts{1, 5}, false},
		{ts{2, 1}, ts{2, 2}, true},
		{ts{2, 2}, ts{2, 2}, false},
	}
	for _, c := range cases {
		if got := timestamp.Less(c.a, c.b); got != c.want {
			t.Errorf("Less(%v, %v) = %v", c.a, c.b, got)
		}
	}
	if (ts{3, 4}).String() != "(3, 4)" {
		t.Errorf("String = %q", ts{3, 4}.String())
	}
}

func TestCheckStrictlyIncreasingErrors(t *testing.T) {
	ts := []timestamp.Timestamp{{Rnd: 1}, {Rnd: 1}}
	if err := timestamp.CheckStrictlyIncreasing(ts); err == nil {
		t.Error("equal adjacent timestamps must fail")
	}
	down := []timestamp.Timestamp{{Rnd: 2}, {Rnd: 1}}
	if err := timestamp.CheckStrictlyIncreasing(down); err == nil {
		t.Error("decreasing timestamps must fail")
	}
	if err := timestamp.CheckStrictlyIncreasing(nil); err != nil {
		t.Error("empty sequence must pass")
	}
}

// NewMem is the one array choice: an Int64Array exactly for the
// algorithms that declare ScalarValued, mutants included, and the boxed
// AtomicArray for every other.
func TestNewMemChoosesArray(t *testing.T) {
	for _, name := range timestamp.AllNames() {
		info, _ := timestamp.Lookup(name)
		alg := info.New(max(info.MinProcs, 4))
		sv, ok := alg.(timestamp.ScalarValued)
		scalar := ok && sv.ScalarValued()
		mem := timestamp.NewMem(alg)
		_, isInt64 := mem.(*register.Int64Array)
		_, isAtomic := mem.(*register.AtomicArray)
		if isInt64 != scalar || isAtomic == scalar {
			t.Errorf("%s: NewMem = %T, ScalarValued = %v", name, mem, scalar)
		}
		if mem.Size() != alg.Registers() {
			t.Errorf("%s: NewMem has %d registers, want %d", name, mem.Size(), alg.Registers())
		}
	}
}

// A getTS of a scalar algorithm through the stack the SDK builds —
// NewMem, metered, under the writer discipline — allocates nothing.
func TestScalarGetTSAllocFree(t *testing.T) {
	const n = 64
	for _, name := range []string{"collect", "dense", "simple"} {
		alg := timestamp.MustNew(name, n)
		base := timestamp.NewMem(alg)
		meter := register.NewMeterSize(base.Size())
		mems := make([]register.Mem, n)
		for pid := range mems {
			mems[pid] = register.Wrap(base, register.Metered(meter), register.DisciplineFor(alg.WriterTable(), pid))
		}
		// One run is a getTS by every process, so a path that allocates
		// for some processes only (dense's writers, not its silent one)
		// still shows. simple is one-shot, so each call is a first call.
		allocs := testing.AllocsPerRun(20, func() {
			for pid, mem := range mems {
				if _, err := alg.GetTS(mem, pid, 0); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per %d getTS calls, want 0", name, allocs, n)
		}
	}
}
