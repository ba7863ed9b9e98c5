package fas

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"tsspace/internal/engine"
)

func TestSequentialIsCounter(t *testing.T) {
	alg := New(4)
	for k := 1; k <= 10; k++ {
		ts, err := alg.GetTS(nil, k%4, k/4)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Rnd != int64(k) {
			t.Errorf("call %d: ts = %v, want (%d, 0)", k, ts, k)
		}
	}
}

// Concurrent calls receive exactly the set {1..total}: the swap chain is a
// perfect ticket dispenser (stronger than the timestamp spec requires).
func TestConcurrentPerfectTickets(t *testing.T) {
	const procs, per = 8, 200
	alg := New(procs)
	got := make([][]int64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				ts, err := alg.GetTS(nil, p, k)
				if err != nil {
					t.Error(err)
					return
				}
				got[p] = append(got[p], ts.Rnd)
			}
		}(p)
	}
	wg.Wait()
	var all []int64
	for p := 0; p < procs; p++ {
		// Per-process timestamps must increase (its own calls are ordered).
		for i := 1; i < len(got[p]); i++ {
			if got[p][i-1] >= got[p][i] {
				t.Fatalf("p%d timestamps not increasing: %v then %v", p, got[p][i-1], got[p][i])
			}
		}
		all = append(all, got[p]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i+1) {
			t.Fatalf("ticket %d missing or duplicated: position %d holds %d", i+1, i, v)
		}
	}
}

func TestHappensBeforeConcurrent(t *testing.T) {
	alg := New(6)
	for rep := 0; rep < 10; rep++ {
		report, err := engine.Run(engine.Config{
			Alg:      alg,
			World:    engine.Atomic,
			N:        6,
			Workload: engine.LongLived{CallsPerProc: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := report.Verify(); err != nil {
			t.Fatal(err)
		}
		alg = New(6) // fresh chain per repetition
	}
}

// The headline contrast with Theorem 1.1: space is one object regardless
// of n.
func TestConstantSpace(t *testing.T) {
	for _, n := range []int{2, 64, 4096} {
		if got := New(n).Registers(); got != 1 {
			t.Errorf("n=%d: Registers = %d, want 1", n, got)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func BenchmarkGetTS(b *testing.B) {
	alg := New(64)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := alg.GetTS(nil, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func ExampleAlg_GetTS() {
	alg := New(3)
	for i := 0; i < 3; i++ {
		ts, _ := alg.GetTS(nil, i, 0)
		fmt.Println(ts)
	}
	// Output:
	// (1, 0)
	// (2, 0)
	// (3, 0)
}
