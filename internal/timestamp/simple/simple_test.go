package simple

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"tsspace/internal/register"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
)

func TestRegisterCount(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {9, 5}, {10, 5}, {11, 6},
	} {
		if got := New(tc.n).Registers(); got != tc.want {
			t.Errorf("n=%d: Registers = %d, want ⌈n/2⌉ = %d", tc.n, got, tc.want)
		}
	}
}

func TestSequentialSumsIncrease(t *testing.T) {
	const n = 10
	alg := New(n)
	mem := timestamp.NewMem(alg)
	var prev timestamp.Timestamp
	for pid := 0; pid < n; pid++ {
		ts, err := alg.GetTS(mem, pid, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pid > 0 && !timestamp.Less(prev, ts) {
			t.Errorf("p%d: %v not after %v", pid, ts, prev)
		}
		prev = ts
	}
}

// Register values must stay in {0, 1, 2} (§5): a process writes 2 only when
// it observed its partner's 1.
func TestValuesBounded(t *testing.T) {
	const n = 12
	alg := New(n)
	mem := timestamp.NewMem(alg)
	for pid := 0; pid < n; pid++ {
		if _, err := alg.GetTS(mem, pid, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < mem.Size(); i++ {
			v := mem.Read(i)
			if v == nil {
				continue
			}
			if x := v.(int64); x < 0 || x > 2 {
				t.Fatalf("register %d = %d, outside {0,1,2}", i, x)
			}
		}
	}
	// All registers end at exactly 2 (both partners bumped) except a
	// possible odd singleton.
	for i := 0; i < mem.Size(); i++ {
		want := int64(2)
		if 2*i+1 >= n {
			want = 1
		}
		if v := mem.Read(i); v.(int64) != want {
			t.Errorf("register %d = %v, want %d", i, v, want)
		}
	}
}

// The final sequential timestamp equals n: every process contributed one
// increment and the last observer sums them all.
func TestFinalTimestampIsN(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 13} {
		alg := New(n)
		mem := timestamp.NewMem(alg)
		var last timestamp.Timestamp
		for pid := 0; pid < n; pid++ {
			ts, err := alg.GetTS(mem, pid, 0)
			if err != nil {
				t.Fatal(err)
			}
			last = ts
		}
		if last.Rnd != int64(n) {
			t.Errorf("n=%d: last timestamp %v, want (%d, 0)", n, last, n)
		}
	}
}

func TestOneShotRejected(t *testing.T) {
	alg := New(2)
	mem := timestamp.NewMem(alg)
	if _, err := alg.GetTS(mem, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := alg.GetTS(mem, 0, 1); !errors.Is(err, timestamp.ErrOneShot) {
		t.Errorf("err = %v, want ErrOneShot", err)
	}
}

func TestPidValidation(t *testing.T) {
	alg := New(2)
	mem := timestamp.NewMem(alg)
	if _, err := alg.GetTS(mem, 2, 0); err == nil {
		t.Error("pid out of range accepted")
	}
	if _, err := alg.GetTS(mem, -1, 0); err == nil {
		t.Error("negative pid accepted")
	}
}

// Partners racing on their shared register may tie (lost update → equal
// sums), which the spec allows for concurrent calls. Exhaustively verify
// that every interleaving of a partner pair yields timestamps that are
// both ≥ 1, and that the happens-before property holds (checked by the
// conformance suite; here we additionally pin down the reachable sums).
func TestPartnerRaceReachableSums(t *testing.T) {
	alg := New(2)
	factory := func() *sched.System {
		return sched.New(2, 1, func(pid int, mem register.Mem) (any, error) {
			ts, err := alg.GetTS(mem, pid, 0)
			return ts, err
		})
	}
	sums := map[[2]int64]bool{}
	if _, err := sched.Explore(factory, 0, 1000, func(sys *sched.System, _ []int) error {
		r0, _ := sys.Result(0)
		r1, _ := sys.Result(1)
		sums[[2]int64{r0.(timestamp.Timestamp).Rnd, r1.(timestamp.Timestamp).Rnd}] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for pair := range sums {
		for _, s := range pair {
			if s < 1 || s > 2 {
				t.Errorf("reachable sum %d outside [1,2]: %v", s, pair)
			}
		}
	}
	// The tie (1,1) is reachable (both read 0, both write 1, both re-read
	// their own 1... note the re-read may see the partner's write; ties
	// and (1,2)/(2,1) splits must all appear).
	if !sums[[2]int64{1, 2}] && !sums[[2]int64{2, 1}] {
		t.Error("no sequential-looking outcome reachable; exploration broken?")
	}
	t.Logf("reachable outcome pairs: %v", sums)
}

// Property: for random subsets of processes called sequentially in random
// order, timestamps are strictly increasing and the final sum equals the
// number of calls.
func TestQuickSequentialSubsets(t *testing.T) {
	f := func(order []uint8) bool {
		if len(order) == 0 {
			return true
		}
		n := 16
		alg := New(n)
		mem := timestamp.NewMem(alg)
		seen := map[int]bool{}
		var prev timestamp.Timestamp
		count := 0
		for _, o := range order {
			pid := int(o) % n
			if seen[pid] {
				continue
			}
			seen[pid] = true
			ts, err := alg.GetTS(mem, pid, 0)
			if err != nil {
				return false
			}
			count++
			if count > 1 && !timestamp.Less(prev, ts) {
				return false
			}
			prev = ts
		}
		return count == 0 || prev.Rnd == int64(count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
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
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg := New(n)
			mem := timestamp.NewMem(alg)
			pid := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pid == n {
					b.StopTimer()
					mem = timestamp.NewMem(alg)
					pid = 0
					b.StartTimer()
				}
				if _, err := alg.GetTS(mem, pid, 0); err != nil {
					b.Fatal(err)
				}
				pid++
			}
		})
	}
}
