package snapshot

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"tsspace/internal/register"
	"tsspace/internal/sched"
)

func TestCollectReadsAll(t *testing.T) {
	mem := register.NewAtomicArray(3)
	mem.Write(0, "a")
	mem.Write(2, 7)
	view := Collect(mem)
	if view[0] != "a" || view[1] != nil || view[2] != 7 {
		t.Errorf("view = %v", view)
	}
}

func TestScanQuiescent(t *testing.T) {
	mem := register.NewAtomicArray(4)
	mem.Write(1, []int{1, 2})
	view, err := Scan(mem)
	if err != nil {
		t.Fatal(err)
	}
	if got := view[1].([]int); got[0] != 1 || got[1] != 2 {
		t.Errorf("view[1] = %v", view[1])
	}
}

// A scan concurrent with bounded writers must return a view that is a
// monotone cut: for a register written with increasing values, the scanned
// value together with scan position must never show a later write in a low
// register paired with an earlier write in a high register IF the high one
// was written first. We verify the weaker but decisive linearizability
// witness for single-register streams: the returned value per register is
// one of the written values. Each writer installs the distinct values
// 1..perWriter in its own register — the Claim 6.1(b) precondition that
// makes the value-equality double collect sound.
func TestScanConcurrentWriters(t *testing.T) {
	const writers, perWriter = 4, 500
	mem := register.NewAtomicArray(writers)
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 1; k <= perWriter; k++ {
				mem.Write(w, k)
			}
		}(w)
	}
	scans := 0
	for !stop.Load() {
		view, err := Scan(mem)
		if err != nil {
			t.Fatal(err)
		}
		scans++
		for i, v := range view {
			if v == nil {
				continue
			}
			k := v.(int)
			if k < 1 || k > perWriter {
				t.Fatalf("register %d scanned impossible value %d", i, k)
			}
		}
		select {
		case <-done(&wg):
			stop.Store(true)
		default:
		}
	}
	if scans == 0 {
		t.Error("no scans completed")
	}
}

func done(wg *sync.WaitGroup) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}

// Deterministic linearizability witness: writer bumps registers 0 then 1 in
// lock-step (so r0 >= r1 always holds at every instant). Any linearizable
// scan must observe r0 >= r1; a naive single collect interleaved
// adversarially observes r0 < r1. We drive both through the deterministic
// scheduler to prove (a) the violation exists and (b) double collect
// refuses it.
func TestScanLinearizableUnderScheduler(t *testing.T) {
	// Process 0: writer does r0=1, r1=1, r0=2, r1=2.
	// Process 1: scanner.
	type result struct{ v0, v1 int }
	mkBody := func(useScan bool) sched.Body {
		return func(pid int, mem register.Mem) (any, error) {
			if pid == 0 {
				for k := 1; k <= 2; k++ {
					mem.Write(0, k)
					mem.Write(1, k)
				}
				return nil, nil
			}
			if useScan {
				view, err := Scan(mem)
				if err != nil {
					return nil, err
				}
				return result{asInt(view[0]), asInt(view[1])}, nil
			}
			view := Collect(mem)
			return result{asInt(view[0]), asInt(view[1])}, nil
		}
	}

	// Adversarial schedule: writer sets r0=1, scanner reads r0 (sees 1),
	// writer completes everything (r1=1, r0=2, r1=2), scanner reads r1
	// (sees 2): torn view 1 < 2.
	sys := sched.New(2, 2, mkBody(false))
	if err := sys.Run(0, 1, 0, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	res, _ := sys.Result(1)
	torn := res.(result)
	if !(torn.v0 < torn.v1) {
		t.Fatalf("expected torn single collect, got %+v", torn)
	}

	// The same adversary against the double-collect scan: whatever the
	// interleaving, the returned view satisfies v0 >= v1.
	factory := func() *sched.System { return sched.New(2, 2, mkBody(true)) }
	err := sched.Sample(factory, 200, 99, func(sys *sched.System, _ []int) error {
		if err := sys.Err(1); err != nil {
			return err
		}
		res, ok := sys.Result(1)
		if !ok {
			t.Fatal("scanner did not finish")
		}
		r := res.(result)
		if r.v0 < r.v1 {
			t.Fatalf("scan returned non-linearizable view %+v", r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func asInt(v register.Value) int {
	if v == nil {
		return 0
	}
	return v.(int)
}

func BenchmarkScan(b *testing.B) {
	mem := register.NewAtomicArray(32)
	for i := 0; i < 32; i++ {
		mem.Write(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(mem); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: on quiescent memory a scan equals a plain collect (random
// contents, including nils and repeated values).
func TestQuickScanQuiescentEqualsCollect(t *testing.T) {
	f := func(vals []int16, gaps []bool) bool {
		m := len(vals)
		if m == 0 {
			return true
		}
		mem := register.NewAtomicArray(m)
		for i, v := range vals {
			if i < len(gaps) && gaps[i] {
				continue // leave ⊥
			}
			mem.Write(i, int(v))
		}
		want := Collect(mem)
		got, err := Scan(mem)
		if err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The collect budget backstop: a pathological memory whose values change on
// every read can livelock a scan; MaxCollects converts it to ErrLivelock.
func TestScanLivelockDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("spins MaxCollects times")
	}
	mem := &volatileMem{}
	if _, err := Scan(mem); !errors.Is(err, ErrLivelock) {
		t.Errorf("err = %v, want ErrLivelock", err)
	}
}

// volatileMem returns a fresh value on every read: no double collect can
// ever succeed.
type volatileMem struct {
	n atomic.Uint64
}

func (m *volatileMem) Size() int { return 1 }
func (m *volatileMem) Read(int) register.Value {
	return m.n.Add(1)
}
func (m *volatileMem) Write(int, register.Value) {}
func (m *volatileMem) MaxInt64(int) int64        { return int64(m.n.Add(1)) }
func (m *volatileMem) WriteInt64(int, int64)     {}
