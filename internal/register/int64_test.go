package register

import (
	"fmt"
	"math"
	"testing"
)

// The scalar array must agree with the generic contract: ⊥ until
// written, a written 0 is a value, last write wins, and the generic
// Read/Write interoperate with the scalar operations on the same storage.
// A collect reads exactly the prefix it is asked for.
func TestInt64ArraysSemantics(t *testing.T) {
	for _, tc := range []struct {
		name string
		mem  *Int64Array
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

// The scalar pair goes through the middleware stack over either array:
// the meter counts a collect of m registers as m reads, and WriteInt64
// obeys the discipline.
func TestMiddlewareScalarPair(t *testing.T) {
	for _, tc := range []struct {
		name string
		base Mem
	}{
		{"int64", NewInt64Array(2)},
		{"atomic", NewAtomicArray(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meter := NewMeterSize(2)
			stack := Wrap(tc.base, Metered(meter), DisciplineFor(SWMRTable(2), 0))
			stack.WriteInt64(0, 9)
			if v := stack.MaxInt64(2); v != 9 {
				t.Fatalf("collect through the stack = %d, want 9", v)
			}
			rep := meter.Report()
			if rep.Writes != 1 || rep.Reads != 2 {
				t.Errorf("meter missed scalar ops: %d writes / %d reads, want 1 write and the collect's 2 reads", rep.Writes, rep.Reads)
			}

			// pid 0 may not write register 1 under SWMR.
			defer func() {
				if recover() == nil {
					t.Error("WriteInt64 against the discipline did not panic")
				}
			}()
			stack.WriteInt64(1, 5)
		})
	}
}

// maxInt64Ref is the one-lane reference collect: the generic reads of
// registers 0..m−1 folded into one running maximum, 0 when all are ⊥.
func maxInt64Ref(a *Int64Array, m int) int64 {
	var ref int64
	for i := 0; i < m; i++ {
		if v := a.Read(i); v != nil && v.(int64) > ref {
			ref = v.(int64)
		}
	}
	return ref
}

// checkPrefixes compares every collect of a against the reference, from
// the empty prefix to the whole array.
func checkPrefixes(t *testing.T, name string, a *Int64Array) {
	t.Helper()
	for m := 0; m <= a.Size(); m++ {
		if got, want := a.MaxInt64(m), maxInt64Ref(a, m); got != want {
			t.Errorf("%s: MaxInt64(%d) = %d, want %d", name, m, got, want)
		}
	}
}

// The four-lane collect must agree with the one-lane reference on every
// prefix of a 67-register array — 16 full groups of four and a tail of
// three — with the maximum in each lane of each group and in each tail
// slot in turn, over a background of ⊥ and smaller values that differ
// from lane to lane.
func TestMaxInt64Lanes(t *testing.T) {
	const size = 67
	for p := 0; p < size; p++ {
		a := NewInt64Array(size)
		for i := 0; i < size; i++ {
			if i%3 != 0 {
				a.WriteInt64(i, int64(i*7%11))
			}
		}
		a.WriteInt64(p, 1000+int64(p))
		checkPrefixes(t, fmt.Sprintf("maximum at %d", p), a)
	}

	checkPrefixes(t, "all ⊥", NewInt64Array(size))
	for _, p := range []int{0, 3, 64, 66} {
		zero := NewInt64Array(size)
		zero.WriteInt64(p, 0)
		checkPrefixes(t, fmt.Sprintf("a written 0 at %d", p), zero)

		large := NewInt64Array(size)
		large.WriteInt64(size-1-p, 5)
		large.WriteInt64(p, math.MaxInt64)
		checkPrefixes(t, fmt.Sprintf("math.MaxInt64 at %d", p), large)
	}
}

// FuzzMaxInt64 checks the four-lane collect against the one-lane
// reference on arrays, prefixes and contents taken from the input: size
// and prefix select the array length (0..127) and the collect's m, and
// value byte i sets register i — 0 leaves it ⊥, 0xff writes
// math.MaxInt64, any other b writes b−1.
func FuzzMaxInt64(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(3), uint8(3), []byte{0, 1, 2})
	f.Add(uint8(4), uint8(4), []byte{0, 0, 0, 9})
	f.Add(uint8(64), uint8(64), append(make([]byte, 63), 0xff)) // the maximum in the last lane
	ascending := make([]byte, 67)
	for i := range ascending {
		ascending[i] = byte(i + 1)
	}
	f.Add(uint8(67), uint8(66), ascending) // the collect stops one short of the tail's maximum
	f.Fuzz(func(t *testing.T, size, prefix uint8, vals []byte) {
		n := int(size) % 128
		m := int(prefix) % (n + 1)
		a := NewInt64Array(n)
		for i, b := range vals[:min(len(vals), n)] {
			switch b {
			case 0:
			case 0xff:
				a.WriteInt64(i, math.MaxInt64)
			default:
				a.WriteInt64(i, int64(b-1))
			}
		}
		if got, want := a.MaxInt64(m), maxInt64Ref(a, m); got != want {
			t.Fatalf("MaxInt64(%d) over %d registers = %d, want %d", m, n, got, want)
		}
	})
}

// BenchmarkMaxInt64 prices the scalar collect alone at n = 64, the
// shipped daemon's process count: 64 atomic loads folded into a maximum,
// with every register written and no meter in front.
func BenchmarkMaxInt64(b *testing.B) {
	const m = 64
	a := NewInt64Array(m)
	for i := 0; i < m; i++ {
		a.WriteInt64(i, int64(i*37%m))
	}
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += a.MaxInt64(m)
	}
	if sink != int64(b.N)*(m-1) {
		b.Fatalf("collect sum %d over %d runs, want %d each", sink, b.N, m-1)
	}
}
