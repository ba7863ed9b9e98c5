package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_depth", "depth")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	for _, bad := range []string{"", "9lead", "has space", "dash-ed", "percent%"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %q did not panic", bad)
				}
			}()
			NewRegistry().Counter(bad, "")
		}()
	}
	func() {
		r := NewRegistry()
		r.Counter("dup_total", "")
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		r.Counter("dup_total", "")
	}()
}

// TestExpositionParses validates the Prometheus text format end to end:
// metric-name charset, HELP/TYPE lines preceding samples, cumulative le
// buckets with monotone counts, and the histogram's +Inf/_count
// agreement — the same checks TestCLITsserved (root package) makes on a
// spawned daemon's scrape.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "requests served")
	g := r.Gauge("app_depth", `queue depth with \ and
newline in help`)
	r.GaugeFunc("app_temp", "sampled", func() float64 { return -3.5 })
	h := r.Histogram("app_latency_ns", "latency", []int64{100, 1000, 10000})
	c.Add(3)
	g.Set(-2)
	for _, v := range []int64{50, 120, 800, 5_000, 2_000_000} {
		h.Record(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	families, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse:\n%s\nerror: %v", buf.String(), err)
	}
	for _, want := range []string{"app_requests_total", "app_depth", "app_temp", "app_latency_ns"} {
		if _, ok := families[want]; !ok {
			t.Errorf("family %q missing from exposition", want)
		}
	}
	lat := families["app_latency_ns"]
	if lat.Type != "histogram" {
		t.Fatalf("app_latency_ns TYPE = %q, want histogram", lat.Type)
	}
	// 50 ≤ 100; 120+800 ≤ 1000; 5000 ≤ 10000; 2ms beyond every bound.
	wantBuckets := []uint64{1, 3, 4}
	for i, want := range wantBuckets {
		if lat.Buckets[i].Count != want {
			t.Errorf("bucket le=%d count = %d, want %d", lat.Buckets[i].LE, lat.Buckets[i].Count, want)
		}
	}
	if lat.Count != 5 {
		t.Errorf("histogram count = %d, want 5", lat.Count)
	}
	if lat.Sum != 50+120+800+5_000+2_000_000 {
		t.Errorf("histogram sum = %d", lat.Sum)
	}
}

// TestZeroAllocInstruments is the hot-path allocation gate of the
// tentpole: counter increments, gauge stores, histogram records and
// flight-recorder records must allocate nothing, ever — they sit on the
// GetTS/GetTSBatch and binary-frame paths.
func TestZeroAllocInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gate_total", "")
	g := r.Gauge("gate_depth", "")
	h := r.Histogram("gate_latency_ns", "", nil)
	ring := NewRing(64)
	for name, fn := range map[string]func(){
		"Counter.Inc":      func() { c.Inc() },
		"Counter.Add":      func() { c.Add(3) },
		"Gauge.Set":        func() { g.Set(5) },
		"Gauge.Add":        func() { g.Add(-1) },
		"Histogram.Record": func() { h.Record(1234) },
		"Ring.Record":      func() { ring.Record(EventAttach, 0xabcd, 3, 7) },
		"Ring.RecordNS":    func() { ring.RecordNS(EventAttach, 9, 0xabcd, 3, 7) },
		"Ring.Snapshot": func() {
			var dst [8]Event
			ring.Snapshot(dst[:])
		},
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, allocs)
		}
	}
}

func TestRingSnapshotSemantics(t *testing.T) {
	r := NewRing(16) // exact power of two
	if r.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", r.Cap())
	}
	var dst [32]Event
	if n := r.Snapshot(dst[:]); n != 0 {
		t.Fatalf("empty ring snapshot = %d events", n)
	}
	for i := 0; i < 40; i++ { // wraps the ring twice
		r.Record(EventError, uint64(i), int32(i), int64(-i))
	}
	n := r.Snapshot(dst[:])
	if n != 16 {
		t.Fatalf("snapshot after wrap = %d events, want 16", n)
	}
	for i, e := range dst[:n] {
		wantSeq := uint64(25 + i) // most recent 16 of 40, oldest first
		if e.Seq != wantSeq {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Session != wantSeq-1 || e.Pid != int32(wantSeq-1) || e.Detail != -int64(wantSeq-1) {
			t.Errorf("event %d fields do not match its seq: %+v", i, e)
		}
		if e.Kind != EventError {
			t.Errorf("event %d kind = %v", i, e.Kind)
		}
		if i > 0 && e.TimeNs < dst[i-1].TimeNs {
			t.Errorf("event %d timestamp went backwards", i)
		}
	}
	// A small dst gets the most recent slice only.
	var three [3]Event
	if n := r.Snapshot(three[:]); n != 3 || three[0].Seq != 38 {
		t.Errorf("small snapshot = %d events starting at %d, want 3 at 38", n, three[0].Seq)
	}
	// Negative pid round-trips through the packed meta word.
	r.Record(EventCrash, 1, -1, 0)
	if n := r.Snapshot(dst[:]); n == 0 || dst[n-1].Pid != -1 {
		t.Errorf("pid -1 did not survive the ring")
	}
}

// TestRingConcurrentHammer drives concurrent writers against a reader
// draining snapshots, under -race in CI: every surfaced event must be
// internally consistent (fields derived from its seq), which catches
// torn slot reads that the stamp protocol is supposed to exclude.
func TestRingConcurrentHammer(t *testing.T) {
	const writers = 8
	const perWriter = 20_000
	r := NewRing(1024)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var torn, read int
	wg.Add(1)
	go func() { // reader: drain continuously until writers finish
		defer wg.Done()
		dst := make([]Event, r.Cap())
		for {
			n := r.Snapshot(dst)
			for _, e := range dst[:n] {
				read++
				// Writers encode their (writer, i) into session/detail as
				// session = writer*perWriter + i and detail = -session.
				if e.Detail != -int64(e.Session) || e.Kind != EventSlowOp {
					torn++
					t.Errorf("torn event surfaced: %+v", e)
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i)
				r.Record(EventSlowOp, id, int32(w), -int64(id))
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if r.Recorded() != writers*perWriter {
		t.Errorf("recorded %d events, want %d", r.Recorded(), writers*perWriter)
	}
	if read == 0 {
		t.Error("reader never saw an event")
	}
	// Final quiesced snapshot must surface a full, consistent ring.
	dst := make([]Event, r.Cap())
	if n := r.Snapshot(dst); n != r.Cap() {
		t.Errorf("quiesced snapshot = %d events, want %d", n, r.Cap())
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewRegistry().Histogram("bench_latency_ns", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func BenchmarkRingRecord(b *testing.B) {
	r := NewRing(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(EventAttach, uint64(i), 1, 0)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 10; i++ {
		r.Counter(fmt.Sprintf("bench_c%d_total", i), "c")
	}
	h := r.Histogram("bench_latency_ns", "h", nil)
	for i := int64(0); i < 1000; i++ {
		h.Record(i * 1000)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := r.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVecFuncsRenderLabeledSamples covers the sampled single-label
// vector families the broker's per-namespace metrics ride on: every
// sample renders as name{label="value"} with the value escaped, the
// strict parser accepts the body, and Family.Labels surfaces the label
// blocks in sample order.
func TestVecFuncsRenderLabeledSamples(t *testing.T) {
	r := NewRegistry()
	r.CounterVecFunc("vec_calls_total", "calls per tenant", "namespace", func() []Sample {
		return []Sample{
			{Label: "default", Value: 12},
			{Label: `we"ird\te` + "\nnant", Value: 3},
		}
	})
	r.GaugeVecFunc("vec_depth", "depth per tenant", "namespace", func() []Sample {
		return []Sample{{Label: "default", Value: -4}}
	})
	// An empty vector renders no samples but keeps its HELP/TYPE header.
	r.GaugeVecFunc("vec_idle", "never sampled", "namespace", func() []Sample { return nil })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	families, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse:\n%s\nerror: %v", body, err)
	}

	calls, ok := families["vec_calls_total"]
	if !ok || calls.Type != "counter" || calls.Samples != 2 {
		t.Fatalf("vec_calls_total family = %+v, want a 2-sample counter", calls)
	}
	if len(calls.Labels) != 2 || calls.Labels[0] != `namespace="default"` {
		t.Fatalf("vec_calls_total labels = %q", calls.Labels)
	}
	// The quote, backslash and newline must come out escaped, in order.
	if want := `namespace="we\"ird\\te\nnant"`; calls.Labels[1] != want {
		t.Fatalf("escaped label block = %q, want %q", calls.Labels[1], want)
	}
	if !strings.Contains(body, `vec_calls_total{namespace="default"} 12`) {
		t.Fatalf("exposition missing the default sample:\n%s", body)
	}
	if depth := families["vec_depth"]; depth.Type != "gauge" || depth.Samples != 1 {
		t.Fatalf("vec_depth family = %+v, want a 1-sample gauge", depth)
	}
	if !strings.Contains(body, "vec_depth{namespace=\"default\"} -4") {
		t.Fatalf("gauge vector sample missing:\n%s", body)
	}
	if idle, ok := families["vec_idle"]; !ok || idle.Samples != 0 {
		t.Fatalf("empty vector family = %+v, want present with 0 samples", idle)
	}
}

// A writer lapped by a whole ring finds a newer stamp in its slot and
// drops its event instead of overwriting the newer one.
func TestRingLappedWriterDrops(t *testing.T) {
	r := NewRing(16)
	for i := 1; i <= 17; i++ {
		r.Record(EventAttach, uint64(i), 0, 0) // seq 17 takes over slot 0
	}
	// Replay a writer that claimed seq 1 and stalled until now.
	r.seq.Store(0)
	r.Record(EventError, 99, 0, 0)
	r.seq.Store(17)

	var dst [16]Event
	n := r.Snapshot(dst[:])
	if n != 16 || dst[15].Seq != 17 || dst[15].Kind != EventAttach || dst[15].Session != 17 {
		t.Errorf("snapshot = %d events ending %+v, want 16 ending with seq 17's attach", n, dst[15])
	}
}

// TestRingRecordNSRoundTrip pins the namespace-id packing: RecordNS
// stores the id in the slot's meta word next to kind and pid, Snapshot
// hands it back intact, Record means namespace 0, and ids are retained
// modulo the 24-bit field.
func TestRingRecordNSRoundTrip(t *testing.T) {
	r := NewRing(16)
	r.Record(EventAttach, 1, 5, 0)
	r.RecordNS(EventDetach, 7, 2, -1, 42)
	r.RecordNS(EventError, 0xffffff, 3, 123, -9)
	r.RecordNS(EventReap, 0x1abcdef0, 4, 0, 0) // only the low 24 bits survive

	var dst [8]Event
	n := r.Snapshot(dst[:])
	if n != 4 {
		t.Fatalf("snapshot returned %d events, want 4", n)
	}
	want := []struct {
		kind EventKind
		ns   uint32
		pid  int32
	}{
		{EventAttach, 0, 5},
		{EventDetach, 7, -1},
		{EventError, 0xffffff, 123},
		{EventReap, 0xbcdef0, 0},
	}
	for i, w := range want {
		e := dst[i]
		if e.Kind != w.kind || e.NS != w.ns || e.Pid != w.pid {
			t.Errorf("event %d = kind %v ns %#x pid %d, want kind %v ns %#x pid %d",
				i, e.Kind, e.NS, e.Pid, w.kind, w.ns, w.pid)
		}
	}
}
