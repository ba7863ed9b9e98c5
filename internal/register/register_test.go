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
	if got := meter.WrittenSet(); !slices.Equal(got, []int{1, 3}) {
		t.Errorf("WrittenSet = %v, want [1 3]", got)
	}
	if got, want := meter.Totals(), (Totals{Registers: 5, Written: 2, Reads: 2, Writes: 3}); got != want {
		t.Errorf("Totals = %+v, want %+v", got, want)
	}
}

func TestMeterEmptyReport(t *testing.T) {
	meter := NewMeterSize(3)
	if got := meter.WrittenSet(); got != nil {
		t.Errorf("empty written set = %v, want nil", got)
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
	if got := meter.WrittenSet(); !slices.Equal(got, written) {
		t.Errorf("WrittenSet after join = %v, want %v", got, written)
	}
}

// TestSWMRTable pins the single-writer rule, w = 1: over n registers,
// every pid < n writes register pid and no other.
func TestSWMRTable(t *testing.T) {
	checkWriterRule(t, 1)
}

// TestTwoWriterTable pins Algorithm 2's pairing, w = 2: over ⌈n/2⌉
// registers, processes 2i and 2i+1 write register i and no other, and
// every register has one or two writers.
func TestTwoWriterTable(t *testing.T) {
	checkWriterRule(t, 2)
}

// checkWriterRule checks the writer rule with w writers per register
// over ⌈n/w⌉ registers: every pid < n writes exactly register pid/w, and
// every register has between 1 and w writers.
func checkWriterRule(t *testing.T, w int) {
	t.Helper()
	for _, n := range []int{1, 2, 3, 4, 5, 10, 11} {
		m := (n + w - 1) / w
		writers := make([]int, m)
		for pid := 0; pid < n; pid++ {
			mem := Wrap(NewAtomicArray(m), DisciplineFor(w, pid))
			for i := 0; i < m; i++ {
				permitted := !panics(func() { mem.Write(i, pid) })
				if permitted != (i == pid/w) {
					t.Errorf("w=%d n=%d: p%d write r%d permitted=%v, want %v", w, n, pid, i, permitted, i == pid/w)
				}
				if permitted {
					writers[i]++
				}
			}
		}
		for i, k := range writers {
			if k < 1 || k > w {
				t.Errorf("w=%d n=%d: register %d has %d writers, want 1..%d", w, n, i, k, w)
			}
		}
	}
}

// panics reports whether op panics.
func panics(op func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	op()
	return false
}

func TestWriteQuorumEnforcement(t *testing.T) {
	base := NewAtomicArray(2)
	h0 := Wrap(base, DisciplineFor(2, 0))
	h3 := Wrap(base, DisciplineFor(2, 3))

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

// Zero writers per register is no discipline: every process may write
// every register, and each write lands.
func TestWriteQuorumNilEntryPermitsAll(t *testing.T) {
	base := NewAtomicArray(2)
	for pid := 0; pid < 3; pid++ {
		mem := Wrap(base, DisciplineFor(0, pid))
		for i := 0; i < base.Size(); i++ {
			if panics(func() { mem.Write(i, pid) }) {
				t.Errorf("w=0: p%d write r%d panicked", pid, i)
			} else if got := base.Read(i); got != pid {
				t.Errorf("w=0: r%d = %v after p%d's write", i, got, pid)
			}
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
	fmt.Println(meter.Totals().Written, meter.WrittenSet())
	// Output: 1 [2]
}
