package register_test

import (
	"testing"

	"tsspace/internal/register"
)

// sliceMem is a minimal boxed-value memory: it collects through
// register.CollectMax, one generic read per register.
type sliceMem struct {
	vals []register.Value
}

func (m *sliceMem) Size() int                     { return len(m.vals) }
func (m *sliceMem) Read(i int) register.Value     { return m.vals[i] }
func (m *sliceMem) Write(i int, v register.Value) { m.vals[i] = v }
func (m *sliceMem) MaxInt64(n int) int64          { return register.CollectMax(m, n) }
func (m *sliceMem) WriteInt64(i int, v int64)     { m.Write(i, v) }

// FuzzMiddlewareStack drives the stack register.Stack builds for the SDK
// and the engine — a shared meter under a per-process write discipline —
// over two substrates at once: a slice memory, whose collect is the
// CollectMax helper, and an Int64Array, whose collect is its four-lane
// kernel (the path the daemon runs). Each op is three bytes: pid,
// register (bit 0x40 selects a write) and value. Bit 0x80 of the pid byte
// selects the scalar operations: WriteInt64 for a write, and for a read a
// collect of r0..reg, one MaxInt64(reg+1) call on each stack. Every input
// runs once per discipline, w = 0, 1 and 2 writers per register. After
// every op both stacks must agree with a plain reference array: a read
// sees exactly the reference value, a collect returns the reference
// maximum over its prefix (0 when all are ⊥), the discipline panics
// precisely on the writes its rule forbids, of either kind, before any
// meter records them, and both meters' totals equal the reference counts,
// a collect counting one read per register.
func FuzzMiddlewareStack(f *testing.F) {
	// The register byte selects r(b % 3): 0x40 is r1, 0x41 r2, 0x42 r0.
	// Under w = 1 register i is p_i's and p3 writes nothing; under w = 2
	// r0 is p0's and p1's, r1 is p2's and p3's, and r2 nobody's; under
	// w = 0 every write lands.
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x07})                                     // p0 reads r0
	f.Add([]byte{0x00, 0x40, 0x07, 0x01, 0x41, 0x09, 0x82, 0x02, 0x00}) // p0→r1, p1→r2, p2 collects r0..r2
	f.Add([]byte{0x03, 0x40, 0x01})                                     // p3 writes r1
	f.Add([]byte{0x02, 0x42, 0x05, 0x00, 0x02, 0x00})                   // p2→r0, p0 reads r2
	f.Add([]byte{0x80, 0x42, 0x03, 0x81, 0x00, 0x00, 0x01, 0x00, 0x00}) // p0 scalar-writes r0, p1 collects r0 alone, then reads it
	f.Add([]byte{0x83, 0x42, 0x01, 0x82, 0x01, 0x00})                   // p3 scalar→r0, p2 collects r0..r1
	f.Add([]byte{0x81, 0x02, 0x00})                                     // p1 collects r0..r2, all ⊥
	f.Add([]byte{0x80, 0x42, 0x00, 0x81, 0x01, 0x00})                   // p0 scalar-writes 0 to r0, p1 collects r0..r1
	f.Add([]byte{0x80, 0x42, 0x02, 0x83, 0x42, 0x09, 0x83, 0x02, 0x00}) // p0 scalar-writes r0, p3 scalar→r0, p3 collects r0..r2

	const n, m = 4, 3

	f.Fuzz(func(t *testing.T, data []byte) {
		for w := 0; w <= 2; w++ {
			checkStack(t, data, n, m, w)
		}
	})
}

// checkStack runs one FuzzMiddlewareStack input against stacks under a
// discipline of w writers per register.
func checkStack(t *testing.T, data []byte, n, m, w int) {
	plainMeter, scalarMeter := register.NewMeterSize(m), register.NewMeterSize(m)
	plainBase, scalarBase := &sliceMem{vals: make([]register.Value, m)}, register.NewInt64Array(m)
	plain := make([]register.Mem, n)
	scalar := make([]register.Mem, n)
	for pid := 0; pid < n; pid++ {
		plain[pid] = register.Stack(plainBase, plainMeter, w, pid)
		scalar[pid] = register.Stack(scalarBase, scalarMeter, w, pid)
	}

	ref := make([]register.Value, m)
	want := register.Totals{Registers: m}

	panics := func(op func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		op()
		return false
	}

	for i := 0; i+2 < len(data); i += 3 {
		op := i / 3
		pid := int(data[i] % byte(n))
		scalarOp := data[i]&0x80 != 0
		reg := int(data[i+1] % byte(m))
		isWrite := data[i+1]&0x40 != 0
		val := int64(data[i+2])

		if isWrite {
			ok := w == 0 || reg == pid/w
			write := func(mem register.Mem) func() {
				if scalarOp {
					return func() { mem.WriteInt64(reg, val) }
				}
				return func() { mem.Write(reg, val) }
			}
			plainPanicked := panics(write(plain[pid]))
			scalarPanicked := panics(write(scalar[pid]))
			if plainPanicked == ok || scalarPanicked == ok {
				t.Fatalf("w=%d op %d: p%d write r%d (scalar=%v): panicked plain=%v scalar=%v, allowed=%v",
					w, op, pid, reg, scalarOp, plainPanicked, scalarPanicked, ok)
			}
			if ok {
				if ref[reg] == nil {
					want.Written++
				}
				ref[reg] = val
				want.Writes++
			}
		} else if scalarOp {
			var refMax int64
			for r := 0; r <= reg; r++ {
				if v := ref[r]; v != nil {
					refMax = max(refMax, v.(int64))
				}
			}
			if got, plainMax := scalar[pid].MaxInt64(reg+1), plain[pid].MaxInt64(reg+1); got != refMax || plainMax != refMax {
				t.Fatalf("w=%d op %d: p%d collect r0..r%d: MaxInt64 = %d, plain = %d, want %d", w, op, pid, reg, got, plainMax, refMax)
			}
			want.Reads += uint64(reg + 1)
		} else {
			if got := plain[pid].Read(reg); got != ref[reg] {
				t.Fatalf("w=%d op %d: p%d plain read r%d = %v, want %v", w, op, pid, reg, got, ref[reg])
			}
			if got := scalar[pid].Read(reg); got != ref[reg] {
				t.Fatalf("w=%d op %d: p%d scalar-stack read r%d = %v, want %v", w, op, pid, reg, got, ref[reg])
			}
			want.Reads++
		}

		for _, mt := range []struct {
			name  string
			meter *register.Meter
		}{{"plain", plainMeter}, {"scalar", scalarMeter}} {
			if got := mt.meter.Totals(); got != want {
				t.Fatalf("w=%d op %d: %s meter totals %+v, reference %+v (forbidden writes must not be recorded)",
					w, op, mt.name, got, want)
			}
		}
	}
}
