package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names a span: the operation itself or one call the benchmark
// makes into a layer.
type spanKind uint8

const (
	kOp spanKind = iota
	kAttach
	kGetTS
	kDetach
	kProvision
	kDeprovision
	kReadSpace
	nKinds
)

var kindNames = [nKinds]string{"op", "client.attach", "client.getts", "client.detach",
	"broker.provision", "broker.deprovision", "broker.read_space"}

type span struct {
	start, end int64 // nanoseconds since the run's epoch
	op         uint64
	parent     int32 // index of the enclosing op span, -1 for none
	kind       spanKind
}

// spanAgg sums the spans of one kind. Self time is a span's duration
// minus the durations of its child spans.
type spanAgg struct {
	n           uint64
	total, self int64
}

func (a spanAgg) meanUs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.total) / float64(a.n) / 1e3
}

// maxSpans bounds the spans one tracer keeps for the dump; aggregation
// continues past it. The buffer is allocated before any clock starts, so
// tracing allocates nothing while it measures.
const maxSpans = 1 << 16

// tracer records the spans of one goroutine. With on false every method
// is skipped by its callers, which also skip reading the clock.
type tracer struct {
	name  string // who records: setup, probe, or session<i>
	on    bool
	epoch time.Time
	buf   []span
	agg   [nKinds]spanAgg

	opID     uint64
	root     int32 // buffer index of the open op span; -1 when none is open or it was not kept
	inOp     bool
	children int64 // summed duration of the open op's child spans
}

func newTracer(name string, epoch time.Time, traced bool) *tracer {
	t := &tracer{name: name, epoch: epoch, root: -1}
	if traced {
		t.buf = make([]span, 0, maxSpans)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp opens an op span; the calls made until endOp are its children.
func (t *tracer) beginOp() {
	t.opID++
	t.inOp, t.children, t.root = true, 0, -1
	if len(t.buf) < cap(t.buf) {
		t.root = int32(len(t.buf))
		t.buf = append(t.buf, span{kind: kOp, op: t.opID, parent: -1})
	}
}

func (t *tracer) endOp(start, end int64) {
	d := end - start
	t.agg[kOp].n++
	t.agg[kOp].total += d
	t.agg[kOp].self += d - t.children
	if t.root >= 0 {
		t.buf[t.root].start, t.buf[t.root].end = start, end
	}
	t.inOp, t.root = false, -1
}

// span records one call into a layer: a child of the open op, if any.
func (t *tracer) span(k spanKind, start, end int64) {
	d := end - start
	t.agg[k].n++
	t.agg[k].total += d
	t.agg[k].self += d
	parent, op := int32(-1), uint64(0)
	if t.inOp {
		t.children += d
		parent, op = t.root, t.opID
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, span{start: start, end: end, op: op, parent: parent, kind: k})
	}
}

// printSpans prints, per span name over all tracers, the count and the
// mean total and self time, each line tagged with label.
func printSpans(label string, tracers []*tracer) {
	var sum [nKinds]spanAgg
	for _, t := range tracers {
		for k, a := range t.agg {
			sum[k].n += a.n
			sum[k].total += a.total
			sum[k].self += a.self
		}
	}
	for k, a := range sum {
		if a.n > 0 {
			fmt.Printf("span %-5s %-20s n=%-8d mean_us=%.3f self_us=%.3f\n", label, kindNames[k], a.n, a.meanUs(), float64(a.self)/float64(a.n)/1e3)
		}
	}
}

// dumpSpans writes every kept span as one JSON object per line, tracer
// by tracer, to dir/<workload>-seed<n>.jsonl, and returns the path. Ids
// and parents index the spans of the same tracer.
func dumpSpans(dir, workload string, seed uint64, tracers []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, t := range tracers {
		for i, s := range t.buf {
			if s.kind == kOp && s.end == 0 {
				continue // op still open when the run stopped
			}
			fmt.Fprintf(w, `{"tracer":%q,"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				t.name, i, s.parent, s.op, kindNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
