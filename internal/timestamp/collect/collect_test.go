package collect

import (
	"fmt"
	"testing"
	"testing/quick"

	"tsspace/internal/timestamp"
)

func TestSequentialCountsUp(t *testing.T) {
	const n = 5
	alg := New(n)
	mem := timestamp.NewMem(alg)
	for k := 0; k < 3*n; k++ {
		pid := k % n
		ts, err := alg.GetTS(mem, pid, k/n)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Rnd != int64(k+1) {
			t.Errorf("call %d: ts = %v, want (%d, 0)", k, ts, k+1)
		}
	}
}

func TestLongLived(t *testing.T) {
	alg := New(2)
	if alg.OneShot() {
		t.Error("collect must be long-lived")
	}
	mem := timestamp.NewMem(alg)
	var prev timestamp.Timestamp
	for seq := 0; seq < 10; seq++ {
		ts, err := alg.GetTS(mem, 0, seq)
		if err != nil {
			t.Fatal(err)
		}
		if seq > 0 && !timestamp.Less(prev, ts) {
			t.Errorf("seq %d: %v not after %v", seq, ts, prev)
		}
		prev = ts
	}
}

// Register values are monotone non-decreasing: the invariant the
// happens-before argument rests on.
func TestRegisterMonotonicity(t *testing.T) {
	const n = 4
	alg := New(n)
	mem := timestamp.NewMem(alg)
	last := make([]int64, n)
	for k := 0; k < 40; k++ {
		pid := (k * 7) % n
		if _, err := alg.GetTS(mem, pid, k); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			v := mem.Read(i)
			if v == nil {
				continue
			}
			x := v.(int64)
			if x < last[i] {
				t.Fatalf("register %d decreased: %d -> %d", i, last[i], x)
			}
			last[i] = x
		}
	}
}

func TestWriterTableIsSWMR(t *testing.T) {
	table := New(3).WriterTable()
	for i, ws := range table {
		if len(ws) != 1 || ws[0] != i {
			t.Errorf("register %d writers %v, want [%d]", i, ws, i)
		}
	}
}

func TestPidValidation(t *testing.T) {
	alg := New(2)
	mem := timestamp.NewMem(alg)
	if _, err := alg.GetTS(mem, 5, 0); err == nil {
		t.Error("pid out of range accepted")
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

// Property: any sequential call pattern (random pids) yields timestamps
// 1, 2, 3, … — the object behaves as a counter under sequential access.
func TestQuickSequentialIsCounter(t *testing.T) {
	f := func(pids []uint8) bool {
		n := 8
		alg := New(n)
		mem := timestamp.NewMem(alg)
		seqs := make([]int, n)
		for k, p := range pids {
			pid := int(p) % n
			ts, err := alg.GetTS(mem, pid, seqs[pid])
			seqs[pid]++
			if err != nil || ts.Rnd != int64(k+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGetTS(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg := New(n)
			mem := timestamp.NewMem(alg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alg.GetTS(mem, i%n, i/n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
