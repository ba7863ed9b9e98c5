package register

import "testing"

// The scalar array must agree with the generic contract: ⊥ until
// written, a written 0 is a value, last write wins, and the generic
// Read/Write interoperate with the scalar operations on the same storage.
// A collect reads exactly the prefix it is asked for.
func TestInt64ArraysSemantics(t *testing.T) {
	for _, tc := range []struct {
		name string
		mem  Int64Mem
	}{
		{"flat", NewInt64Array(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mem
			if m.Size() != 4 {
				t.Fatalf("Size = %d, want 4", m.Size())
			}
			if v := m.Read(0); v != nil {
				t.Errorf("fresh register Read = %v, want nil", v)
			}
			if v := m.MaxInt64(4); v != 0 {
				t.Errorf("MaxInt64(4) over ⊥ registers = %d, want 0", v)
			}

			m.WriteInt64(0, 0) // 0 is a value, not ⊥
			if v := m.Read(0); v != int64(0) {
				t.Errorf("Read after WriteInt64(0, 0) = %v, want 0 (not ⊥)", v)
			}
			if v := m.MaxInt64(1); v != 0 {
				t.Errorf("MaxInt64(1) over a written 0 = %d, want 0", v)
			}
			m.WriteInt64(1, 41)
			m.Write(1, int64(42)) // generic write over scalar storage
			if v := m.Read(1); v != int64(42) {
				t.Errorf("last write lost: generic Read = %v, want 42", v)
			}
			m.WriteInt64(2, 7)
			m.WriteInt64(3, 99)
			if v := m.MaxInt64(3); v != 42 {
				t.Errorf("MaxInt64(3) = %d, want 42 (register 3's 99 is outside the prefix)", v)
			}
			if v := m.MaxInt64(4); v != 99 {
				t.Errorf("MaxInt64(4) = %d, want 99", v)
			}
			if v := m.MaxInt64(0); v != 0 {
				t.Errorf("MaxInt64(0) = %d, want 0 (an empty collect)", v)
			}
			// Negative values would collide with the ⊥ encoding at -1, so
			// the arrays reject them outright.
			func() {
				defer func() {
					if recover() == nil {
						t.Error("WriteInt64 of a negative value did not panic")
					}
				}()
				m.WriteInt64(2, -1)
			}()

			defer func() {
				if recover() == nil {
					t.Error("generic Write of a non-int64 did not panic")
				}
			}()
			m.Write(3, "not a scalar")
		})
	}
}

// The middleware stack must carry the Int64Mem capability end to end —
// and only over substrates that have it — and its meter must count a
// collect of m registers as m reads.
func TestMiddlewarePreservesInt64Mem(t *testing.T) {
	table := SWMRTable(2)
	meter := NewMeterSize(2)
	stack := Wrap(NewInt64Array(2), Metered(meter), DisciplineFor(table, 0))
	im, ok := stack.(Int64Mem)
	if !ok {
		t.Fatal("metered+disciplined stack over Int64Array lost the scalar fast path")
	}
	im.WriteInt64(0, 9)
	if v := im.MaxInt64(2); v != 9 {
		t.Fatalf("collect through the stack = %d, want 9", v)
	}
	rep := meter.Report()
	if rep.Writes != 1 || rep.Reads != 2 {
		t.Errorf("meter missed scalar ops: %d writes / %d reads, want 1 write and the collect's 2 reads", rep.Writes, rep.Reads)
	}

	// The discipline still bites on the scalar path: pid 0 may not write
	// register 1 under SWMR.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WriteInt64 against the discipline did not panic")
			}
		}()
		im.WriteInt64(1, 5)
	}()

	// A generic substrate must not grow the capability.
	if _, ok := Wrap(NewAtomicArray(2), Metered(meter)).(Int64Mem); ok {
		t.Error("stack over AtomicArray claims Int64Mem")
	}
}
