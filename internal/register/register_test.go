package register

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAtomicArrayInitialBottom(t *testing.T) {
	a := NewAtomicArray(4)
	if a.Size() != 4 {
		t.Fatalf("Size = %d, want 4", a.Size())
	}
	for i := 0; i < 4; i++ {
		if v := a.Read(i); v != nil {
			t.Errorf("register %d initial value = %v, want ⊥ (nil)", i, v)
		}
	}
}

func TestAtomicArrayReadWrite(t *testing.T) {
	a := NewAtomicArray(2)
	a.Write(0, 42)
	a.Write(1, "x")
	if v := a.Read(0); v != 42 {
		t.Errorf("Read(0) = %v, want 42", v)
	}
	if v := a.Read(1); v != "x" {
		t.Errorf("Read(1) = %v, want x", v)
	}
	a.Write(0, 43)
	if v := a.Read(0); v != 43 {
		t.Errorf("Read(0) after overwrite = %v, want 43", v)
	}
	a.Write(1, nil) // writing ⊥ back is a value like any other
	if v := a.Read(1); v != nil {
		t.Errorf("Read(1) after writing ⊥ = %v, want nil", v)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAtomicArray(-1) should panic")
		}
	}()
	NewAtomicArray(-1)
}

// meteredArray is an atomic array behind a Metered layer, the only way
// operations reach a Meter.
func meteredArray(size int) (Mem, *Meter) {
	meter := NewMeterSize(size)
	return Wrap(NewAtomicArray(size), Metered(meter)), meter
}

func TestMeterCounts(t *testing.T) {
	m, meter := meteredArray(5)
	m.Write(1, "a")
	m.Write(3, "b")
	m.Write(3, "c")
	m.Read(0)
	m.Read(4)
	r := meter.Report()
	if r.Registers != 5 {
		t.Errorf("Registers = %d, want 5", r.Registers)
	}
	if r.Written != 2 {
		t.Errorf("Written = %d, want 2", r.Written)
	}
	if r.MaxWrittenIndex != 3 {
		t.Errorf("MaxWrittenIndex = %d, want 3", r.MaxWrittenIndex)
	}
	if r.Writes != 3 || r.Reads != 2 {
		t.Errorf("Writes = %d Reads = %d", r.Writes, r.Reads)
	}
	if !slices.Equal(r.WrittenSet, []int{1, 3}) {
		t.Errorf("WrittenSet = %v, want [1 3]", r.WrittenSet)
	}
	if got, want := meter.Totals(), (Totals{Registers: 5, Written: 2, Reads: 2, Writes: 3}); got != want {
		t.Errorf("Totals = %+v, want %+v", got, want)
	}
}

func TestMeterEmptyReport(t *testing.T) {
	meter := NewMeterSize(3)
	r := meter.Report()
	if r.Written != 0 || r.MaxWrittenIndex != -1 || r.WrittenSet != nil || r.Reads != 0 || r.Writes != 0 {
		t.Errorf("empty report = %+v", r)
	}
	if got := meter.Totals(); got != (Totals{Registers: 3}) {
		t.Errorf("empty totals = %+v", got)
	}
}

// A metered handle fills whole cache lines, so the counters of handles
// driven from different cores never share one.
func TestMeteredHandleFillsCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the handle layout is sized for 64-bit platforms")
	}
	if size := unsafe.Sizeof(meteredMem{}); size%64 != 0 {
		t.Errorf("a metered handle is %d bytes, want a multiple of 64", size)
	}
}

// Each goroutine drives its own handle while another scrapes Totals in a
// loop: every snapshot is monotone with Written ≤ Writes, and the totals
// after the join are exact. Every write is to a fresh register, so Written
// = Writes between operations and a snapshot that read the two out of
// order would show Written > Writes.
func TestMeterConcurrentSafety(t *testing.T) {
	const procs, iters, size = 8, 64, 2 * 8 * 64
	base := NewInt64Array(size)
	meter := NewMeterSize(size)
	started, done, scraped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		prev := meter.Totals()
		close(started) // the writers start once a scrape has run
		for {
			select {
			case <-done:
				return
			default:
			}
			cur := meter.Totals()
			if cur.Written > int(cur.Writes) || cur.Written < prev.Written || cur.Reads < prev.Reads || cur.Writes < prev.Writes {
				t.Errorf("snapshot %+v after %+v: want Written ≤ Writes and no count going back", cur, prev)
				return
			}
			prev = cur
		}
	}()

	<-started
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := Wrap(base, Metered(meter))
			for k := 0; k < iters; k++ {
				h.WriteInt64(2*(p*iters+k), int64(k)) // the even registers, each once
				h.MaxInt64(1)                         // a one-register collect: one read
			}
		}(p)
	}
	wg.Wait()
	close(done)
	<-scraped

	var written []int // every other register, across all 16 bitmap words
	for i := 0; i < size; i += 2 {
		written = append(written, i)
	}
	want := Totals{Registers: size, Written: len(written), Reads: procs * iters, Writes: procs * iters}
	if got := meter.Totals(); got != want {
		t.Errorf("Totals after join = %+v, want %+v", got, want)
	}
	if r := meter.Report(); !slices.Equal(r.WrittenSet, written) || r.MaxWrittenIndex != written[len(written)-1] {
		t.Errorf("Report after join: written set %v (max %d), want %v", r.WrittenSet, r.MaxWrittenIndex, written)
	}
}

func TestTwoWriterTable(t *testing.T) {
	for _, tc := range []struct {
		n, m int
	}{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {10, 5}, {11, 6}} {
		table := TwoWriterTable(tc.n)
		if len(table) != tc.m {
			t.Errorf("n=%d: table size %d, want ⌈n/2⌉=%d", tc.n, len(table), tc.m)
		}
		seen := map[int]bool{}
		for i, ws := range table {
			if len(ws) == 0 || len(ws) > 2 {
				t.Errorf("n=%d register %d writers %v", tc.n, i, ws)
			}
			for _, w := range ws {
				if w < 0 || w >= tc.n {
					t.Errorf("n=%d register %d invalid writer %d", tc.n, i, w)
				}
				if seen[w] {
					t.Errorf("n=%d writer %d assigned twice", tc.n, w)
				}
				seen[w] = true
			}
		}
		if len(seen) != tc.n {
			t.Errorf("n=%d only %d processes assigned a register", tc.n, len(seen))
		}
	}
}

func TestWriteQuorumEnforcement(t *testing.T) {
	base := NewAtomicArray(2)
	h0 := Wrap(base, DisciplineFor(TwoWriterTable(4), 0))
	h3 := Wrap(base, DisciplineFor(TwoWriterTable(4), 3))

	h0.Write(0, "ok") // process 0 may write register 0
	h3.Write(1, "ok") // process 3 may write register 1
	if h0.Read(1) != "ok" {
		t.Error("reads must be unrestricted")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("process 0 writing register 1 should panic")
			}
		}()
		h0.Write(1, "bad")
	}()
}

func TestWriteQuorumNilEntryPermitsAll(t *testing.T) {
	base := NewAtomicArray(1)
	for pid := 0; pid < 3; pid++ {
		Wrap(base, DisciplineFor([][]int{nil}, pid)).Write(0, pid) // must not panic
	}
}

func TestWriteQuorumSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched table should panic")
		}
	}()
	Wrap(NewAtomicArray(3), DisciplineFor(TwoWriterTable(4), 0))
}

func TestSWMRTable(t *testing.T) {
	table := SWMRTable(3)
	if len(table) != 3 {
		t.Fatalf("len = %d", len(table))
	}
	for i, ws := range table {
		if len(ws) != 1 || ws[0] != i {
			t.Errorf("register %d writers %v, want [%d]", i, ws, i)
		}
	}
}

// Both writer tables slice their rows out of one pid list, so a table
// costs two allocations at any n, and each row is capped at its own
// writers: appending to one row must not overwrite the next.
func TestWriterTablesShareOnePidList(t *testing.T) {
	for name, build := range map[string]func(int) [][]int{"swmr": SWMRTable, "two-writer": TwoWriterTable} {
		for _, n := range []int{64, 4096} {
			if allocs := testing.AllocsPerRun(10, func() { build(n) }); allocs != 2 {
				t.Errorf("%s n=%d: %.0f allocations, want 2", name, n, allocs)
			}
		}
		table := build(5)
		_ = append(table[0], 99)
		if table[1][0] == 99 {
			t.Errorf("%s: appending to row 0 overwrote row 1: %v", name, table)
		}
	}
}

// Property: a sequence of writes leaves the last value readable
// (single-threaded semantics of the atomic cell).
func TestQuickSequentialSemantics(t *testing.T) {
	f := func(vals []int) bool {
		a := NewAtomicArray(1)
		for _, v := range vals {
			a.Write(0, v)
		}
		got := a.Read(0)
		if len(vals) == 0 {
			return got == nil
		}
		return got == vals[len(vals)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAtomicWrite(b *testing.B) {
	a := NewAtomicArray(1)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			a.Write(0, i)
			i++
		}
	})
}

func BenchmarkAtomicRead(b *testing.B) {
	a := NewAtomicArray(1)
	a.Write(0, 7)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if a.Read(0) == nil {
				b.Fatal("lost value")
			}
		}
	})
}

func ExampleMeter() {
	meter := NewMeterSize(4)
	mem := Wrap(NewAtomicArray(4), Metered(meter))
	mem.Write(2, "hello")
	r := meter.Report()
	fmt.Println(r.Written, r.MaxWrittenIndex)
	// Output: 1 2
}
