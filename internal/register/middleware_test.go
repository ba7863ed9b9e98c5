package register

import (
	"fmt"
	"slices"
	"testing"
)

// plainMem is a bare slice-backed memory that collects through
// CollectMax.
type plainMem struct {
	vals []Value
}

func newPlainMem(m int) *plainMem { return &plainMem{vals: make([]Value, m)} }

func (p *plainMem) Size() int                 { return len(p.vals) }
func (p *plainMem) Read(i int) Value          { return p.vals[i] }
func (p *plainMem) Write(i int, v Value)      { p.vals[i] = v }
func (p *plainMem) MaxInt64(m int) int64      { return CollectMax(p, m) }
func (p *plainMem) WriteInt64(i int, v int64) { p.Write(i, v) }

// taggingMem records the order wrappers run in.
type taggingMem struct {
	inner Mem
	tag   string
	log   *[]string
}

func (t *taggingMem) Size() int { return t.inner.Size() }
func (t *taggingMem) Read(i int) Value {
	*t.log = append(*t.log, t.tag)
	return t.inner.Read(i)
}
func (t *taggingMem) Write(i int, v Value) {
	*t.log = append(*t.log, t.tag)
	t.inner.Write(i, v)
}
func (t *taggingMem) MaxInt64(m int) int64      { return CollectMax(t, m) }
func (t *taggingMem) WriteInt64(i int, v int64) { t.Write(i, v) }

func tagging(tag string, log *[]string) Middleware {
	return func(inner Mem) Mem { return &taggingMem{inner: inner, tag: tag, log: log} }
}

// Wrap applies middlewares first-is-innermost: the last middleware's
// methods run first.
func TestWrapOrder(t *testing.T) {
	var log []string
	mem := Wrap(newPlainMem(1), tagging("inner", &log), nil, tagging("outer", &log))
	mem.Read(0)
	if len(log) != 2 || log[0] != "outer" || log[1] != "inner" {
		t.Errorf("layer order = %v, want [outer inner]", log)
	}
}

func TestWrapNilIdentity(t *testing.T) {
	base := newPlainMem(2)
	if got := Wrap(base, nil, nil); got != Mem(base) {
		t.Error("Wrap with only nil middlewares must return the base memory")
	}
	// An unmetered stack of an any-writer algorithm has no layer at all.
	if got := Stack(base, nil, 0, 3); got != Mem(base) {
		t.Error("Stack with a nil meter and no discipline must return the base memory")
	}
}

// One shared meter aggregates operations from several per-process stacks,
// and lists their written set.
func TestMeteredSharedAcrossStacks(t *testing.T) {
	base := NewAtomicArray(3)
	meter := NewMeterSize(3)
	m0 := Wrap(base, Metered(meter))
	m1 := Wrap(base, Metered(meter))

	m0.Write(0, "a")
	m1.Write(0, "b")
	m1.Write(2, "c")
	m0.Read(1)
	m1.Read(1)

	rep := meter.Totals()
	if rep.Writes != 3 || rep.Reads != 2 {
		t.Errorf("totals = %d writes / %d reads, want 3/2", rep.Writes, rep.Reads)
	}
	if rep.Written != 2 {
		t.Errorf("written registers = %d, want 2", rep.Written)
	}
	if got := meter.WrittenSet(); !slices.Equal(got, []int{0, 2}) {
		t.Errorf("written set = %v, want [0 2]", got)
	}
}

// DisciplineFor enforces the writer rule per process and is the identity
// for algorithms that permit any writer.
func TestDisciplineForEnforcement(t *testing.T) {
	base := NewAtomicArray(2)

	if mw := DisciplineFor(0, 0); mw != nil {
		t.Error("zero writers per register must yield a nil middleware")
	}

	own := Wrap(base, DisciplineFor(1, 1))
	own.Write(1, "mine") // permitted
	if base.Read(1) != "mine" {
		t.Error("permitted write did not land")
	}

	defer func() {
		if recover() == nil {
			t.Error("foreign write must panic")
		}
	}()
	own.Write(0, "foreign")
}

// StampFirstOp stamps right after the first operation, whichever kind it
// is, and an operation-free call stamps at Stamp() time.
func TestStampFirstOp(t *testing.T) {
	var clock uint64
	tick := func() uint64 { clock++; return clock }

	for _, first := range []string{"read", "write", "none"} {
		t.Run(first, func(t *testing.T) {
			clock = 0
			base := NewAtomicArray(1)
			mem, stamp := StampFirstOp(base, tick)
			switch first {
			case "read":
				mem.Read(0)
			case "write":
				mem.Write(0, "x")
			case "none":
			}
			if got := stamp.Stamp(); got != 1 {
				t.Errorf("stamp = %d, want 1 (taken at first op or first Stamp call)", got)
			}
			mem.Read(0)
			if got := stamp.Stamp(); got != 1 {
				t.Errorf("stamp moved to %d after later ops", got)
			}
		})
	}
}

// A collect through the stamp wrapper is its reads one by one: the stamp
// is taken right after the first read, before the second.
func TestStampFirstOpCollect(t *testing.T) {
	var log []string
	base := NewAtomicArray(3)
	inner := Wrap(base, tagging("read", &log))
	mem, stamp := StampFirstOp(inner, func() uint64 { return uint64(len(log)) })
	base.Write(2, int64(4))
	if v := mem.MaxInt64(3); v != 4 {
		t.Fatalf("MaxInt64(3) = %d, want 4", v)
	}
	if len(log) != 3 {
		t.Errorf("collect of 3 registers made %d reads, want 3", len(log))
	}
	if got := stamp.Stamp(); got != 1 {
		t.Errorf("stamp = %d reads in, want 1 (right after the first read)", got)
	}
}

// The full stack composes: metering at the bottom, discipline on top —
// reads see every process's writes, writes are counted and checked.
func TestFullStackComposition(t *testing.T) {
	base := newPlainMem(2)
	meter := NewMeterSize(2)

	p0, p1 := Stack(base, meter, 1, 0), Stack(base, meter, 1, 1)
	p0.Write(0, "zero")
	p1.Write(1, "one")
	if v := p1.Read(0); v != "zero" {
		t.Errorf("p1 reads r0 = %v, want zero", v)
	}
	rep := meter.Totals()
	if rep.Writes != 2 || rep.Reads != 1 || rep.Written != 2 {
		t.Errorf("meter saw %d writes / %d reads / %d written", rep.Writes, rep.Reads, rep.Written)
	}

	defer func() {
		if recover() == nil {
			t.Error("discipline must fire through the full stack")
		}
	}()
	p1.Write(0, "stolen")
}

func ExampleWrap() {
	meter := NewMeterSize(2)
	mem := Wrap(NewAtomicArray(2),
		Metered(meter),
		DisciplineFor(1, 0),
	)
	mem.Write(0, "hello")
	fmt.Println(mem.Read(0), meter.Totals().Writes)
	// Output: hello 1
}
