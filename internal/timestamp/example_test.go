package timestamp_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"tsspace/internal/timestamp"
	_ "tsspace/internal/timestamp/collect" // self-registers "collect"
	"tsspace/internal/timestamp/dense"
	"tsspace/internal/timestamp/simple"
)

func ExampleMustNew() {
	// Resolve an implementation through the registry (the collect package
	// registered itself from init()) and draw two timestamps per process,
	// round-robin; sequential calls are happens-before ordered, so the
	// timestamps strictly increase.
	alg := timestamp.MustNew("collect", 3)
	mem := timestamp.NewMem(alg)
	var ts []timestamp.Timestamp
	for seq := 0; seq < 2; seq++ {
		for pid := 0; pid < 3; pid++ {
			t, err := alg.GetTS(mem, pid, seq)
			if err != nil {
				fmt.Println(err)
				return
			}
			ts = append(ts, t)
		}
	}
	if err := timestamp.CheckStrictlyIncreasing(ts); err != nil {
		fmt.Println(err)
		return
	}
	for _, t := range ts {
		fmt.Print(t, " ")
	}
	fmt.Println()
	// Output: (1, 0) (2, 0) (3, 0) (4, 0) (5, 0) (6, 0)
}

func ExampleAlgorithm_compare() {
	alg := dense.New(3)
	mem := timestamp.NewMem(alg)
	t1, _ := alg.GetTS(mem, 0, 0) // writer
	t2, _ := alg.GetTS(mem, 2, 0) // the silent process: "t1 + ε"
	t3, _ := alg.GetTS(mem, 1, 0) // writer again
	fmt.Println(timestamp.Less(t1, t2), timestamp.Less(t2, t3), timestamp.Less(t3, t1))
	// Output: true true false
}

func ExampleAlgorithm_oneShot() {
	alg := simple.New(6) // ⌈6/2⌉ = 3 two-writer registers
	mem := timestamp.NewMem(alg)
	for pid := 0; pid < 3; pid++ {
		t, _ := alg.GetTS(mem, pid, 0)
		fmt.Println(t)
	}
	// Output:
	// (1, 0)
	// (2, 0)
	// (3, 0)
}

// Property: Less is a strict total order on random timestamps
// (irreflexive, antisymmetric, transitive, total).
func TestQuickLessStrictTotalOrder(t *testing.T) {
	mk := func(a, b int16) timestamp.Timestamp {
		return timestamp.Timestamp{Rnd: int64(a), Turn: int64(b)}
	}
	f := func(a1, a2, b1, b2, c1, c2 int16) bool {
		a, b, c := mk(a1, a2), mk(b1, b2), mk(c1, c2)
		if timestamp.Less(a, a) {
			return false // irreflexive
		}
		if timestamp.Less(a, b) && timestamp.Less(b, a) {
			return false // antisymmetric
		}
		if timestamp.Less(a, b) && timestamp.Less(b, c) && !timestamp.Less(a, c) {
			return false // transitive
		}
		if a != b && !timestamp.Less(a, b) && !timestamp.Less(b, a) {
			return false // total
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
