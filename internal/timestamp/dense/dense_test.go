package dense

import (
	"errors"
	"fmt"
	"testing"

	"tsspace/internal/hbcheck"
	"tsspace/internal/timestamp"
)

func TestUsesNMinusOneRegisters(t *testing.T) {
	for _, n := range []int{2, 3, 10, 101} {
		if got := New(n).Registers(); got != n-1 {
			t.Errorf("n=%d: Registers = %d, want %d", n, got, n-1)
		}
	}
}

func TestSilentProcessOrdersAgainstWriters(t *testing.T) {
	const n = 4
	alg := New(n)
	mem := timestamp.NewMem(alg)
	silent := n - 1

	// writer w1 → silent s1 → writer w2 → silent s2: all must be strictly
	// increasing under compare.
	w1, err := alg.GetTS(mem, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := alg.GetTS(mem, silent, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := alg.GetTS(mem, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := alg.GetTS(mem, silent, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := []timestamp.Timestamp{w1, s1, w2, s2}
	if err := timestamp.CheckStrictlyIncreasing(seq); err != nil {
		t.Fatal(err)
	}
	// The silent timestamps carry the ε component.
	if s1.Turn == 0 || s2.Turn == 0 {
		t.Errorf("silent timestamps missing ε: %v %v", s1, s2)
	}
	// Writers' timestamps are integers.
	if w1.Turn != 0 || w2.Turn != 0 {
		t.Errorf("writer timestamps carry ε: %v %v", w1, w2)
	}
}

func TestSilentOnlyExecution(t *testing.T) {
	// The silent process alone: timestamps (0,1), (0,2), … strictly
	// increasing without a single register write.
	const n = 3
	alg := New(n)
	mem := timestamp.NewMem(alg)
	var prev timestamp.Timestamp
	for seq := 0; seq < 5; seq++ {
		ts, err := alg.GetTS(mem, n-1, seq)
		if err != nil {
			t.Fatal(err)
		}
		if seq > 0 && !timestamp.Less(prev, ts) {
			t.Errorf("seq %d: %v not after %v", seq, ts, prev)
		}
		prev = ts
	}
	for i := 0; i < mem.Size(); i++ {
		if mem.Read(i) != nil {
			t.Errorf("silent process wrote register %d", i)
		}
	}
}

// The broken two-silent variant must violate the happens-before property:
// two silent processes calling sequentially return equal timestamps. This
// demonstrates (a) why one non-writer is the limit of the dense-universe
// trick, i.e. why n−1 registers is tight for this construction, and (b)
// that hbcheck actually catches specification violations (failure
// injection for the checker).
func TestTwoSilentViolatesSpec(t *testing.T) {
	const n = 4
	alg := TwoSilent(n)
	mem := timestamp.NewMem(alg)
	var rec hbcheck.Recorder

	issue := func(pid, seq int) {
		t.Helper()
		start := rec.Begin()
		ts, err := alg.GetTS(mem, pid, seq)
		if err != nil {
			t.Fatal(err)
		}
		rec.End(pid, seq, start, ts)
	}
	// Silent process A then silent process B, strictly sequential: both
	// compute (0, 1).
	issue(n-1, 0)
	issue(n-2, 0)

	err := hbcheck.Check(rec.Events())
	if err == nil {
		t.Fatal("two-silent variant produced a consistent history; expected a violation")
	}
	var v hbcheck.Violation
	if !errors.As(err, &v) {
		t.Fatalf("unexpected error type %T: %v", err, err)
	}
	t.Logf("detected as expected: %v", v)
}

func TestWriterTableSize(t *testing.T) {
	if got := len(New(5).WriterTable()); got != 4 {
		t.Errorf("writer table size %d, want 4", got)
	}
}

func TestPidValidation(t *testing.T) {
	alg := New(3)
	mem := timestamp.NewMem(alg)
	if _, err := alg.GetTS(mem, 3, 0); err == nil {
		t.Error("pid out of range accepted")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(1) },
		func() { TwoSilent(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNames(t *testing.T) {
	if New(2).Name() != "dense" || TwoSilent(3).Name() != "dense-broken-2silent" {
		t.Error("unexpected names")
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
