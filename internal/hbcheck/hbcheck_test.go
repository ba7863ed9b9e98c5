package hbcheck

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"tsspace/internal/timestamp"
)

func ts(rnd int64) timestamp.Timestamp { return timestamp.Timestamp{Rnd: rnd} }

// pairwise is Check's oracle: the direct O(k²) statement of the property.
// It scans the events stably sorted by End and returns the first pair
// e1 → e2 (e1.End < e2.Start) whose timestamps do not order e1 first.
func pairwise(events []Event) *Violation {
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].End < sorted[j].End })
	for i, e1 := range sorted {
		for _, e2 := range sorted[i+1:] {
			if e1.End < e2.Start && !timestamp.Less(e1.Val, e2.Val) {
				return &Violation{First: e1, Second: e2}
			}
		}
	}
	return nil
}

// agrees fails t unless Check returns exactly the oracle's pair, or nil
// when the oracle finds none.
func agrees(t *testing.T, events []Event) {
	t.Helper()
	want := pairwise(events)
	err := Check(events)
	var got Violation
	switch {
	case want == nil && err != nil:
		t.Fatalf("Check found %v where the oracle finds nothing in %+v", err, events)
	case want != nil && !errors.As(err, &got):
		t.Fatalf("Check returned %v, oracle %+v, in %+v", err, *want, events)
	case want != nil && got != *want:
		t.Fatalf("Check returned %+v, oracle %+v, in %+v", got, *want, events)
	}
}

// decodeEvents turns fuzz bytes into at most 64 events, four bytes each:
// start, length, rnd, turn. Stamps and timestamps are small, so End ties,
// Start = End, timestamp ties and violations are all common.
func decodeEvents(data []byte) []Event {
	var events []Event
	for i := 0; i+4 <= len(data) && len(events) < 64; i += 4 {
		start := uint64(data[i] % 32)
		events = append(events, Event{
			Pid:   len(events) % 4,
			Seq:   len(events),
			Start: start,
			End:   start + uint64(data[i+1]%8),
			Val:   timestamp.Timestamp{Rnd: int64(data[i+2] % 4), Turn: int64(data[i+3] % 3)},
		})
	}
	return events
}

// FuzzCheck holds the sweep to its pairwise oracle, pair for pair.
func FuzzCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 5, 0, 3, 1, 3, 0})                         // a forward violation
	f.Add([]byte{0, 1, 7, 0, 3, 0, 7, 0})                         // equal timestamps
	f.Add([]byte{0, 4, 9, 0, 1, 4, 1, 0})                         // concurrent, inverted
	f.Add([]byte{0, 1, 2, 0, 0, 1, 3, 0, 5, 0, 1, 0, 5, 0, 0, 0}) // End ties on both sides
	f.Fuzz(func(t *testing.T, data []byte) {
		agrees(t, decodeEvents(data))
	})
}

// The sweep returns the oracle's pair on random event sets of every size
// up to 12, the shape of FuzzCheck's corpus without the fuzzer.
func TestCheckMatchesPairwiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	violations := 0
	for i := 0; i < 20000; i++ {
		data := make([]byte, 4*rng.Intn(13))
		rng.Read(data)
		events := decodeEvents(data)
		if pairwise(events) != nil {
			violations++
		}
		agrees(t, events)
	}
	if violations == 0 {
		t.Fatal("no event set had a violation; the comparison proves nothing")
	}
}

func TestRecorderStampsOrdered(t *testing.T) {
	var r Recorder
	s1 := r.Begin()
	r.End(0, 0, s1, ts(10))
	s2 := r.Begin()
	r.End(1, 0, s2, ts(20))
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d", len(ev))
	}
	if !(ev[0].End < ev[1].Start) {
		t.Errorf("sequential calls must be hb-ordered: %+v", ev)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestCheckAcceptsConsistent(t *testing.T) {
	var r Recorder
	for i := 0; i < 5; i++ {
		s := r.Begin()
		r.End(i, 0, s, ts(int64(i)))
	}
	if err := Check(r.Events()); err != nil {
		t.Errorf("consistent history rejected: %v", err)
	}
}

func TestCheckDetectsForwardViolation(t *testing.T) {
	// g1 (ts 5) happens before g2 (ts 3): compare(5,3) = false → violation.
	var r Recorder
	s := r.Begin()
	r.End(0, 0, s, ts(5))
	s = r.Begin()
	r.End(1, 0, s, ts(3))
	err := Check(r.Events())
	if err == nil {
		t.Fatal("violation not detected")
	}
	var v Violation
	if !errors.As(err, &v) {
		t.Fatalf("error type %T", err)
	}
	if v.First.Pid != 0 || v.Second.Pid != 1 {
		t.Errorf("violation pair = %+v", v)
	}
	const want = "hbcheck: p0.getTS#0 → p1.getTS#0 but compare((5, 0), (3, 0)) = false and compare((3, 0), (5, 0)) = true"
	if v.Error() != want {
		t.Errorf("message %q, want %q", v.Error(), want)
	}
}

func TestCheckDetectsEqualTimestamps(t *testing.T) {
	// Two hb-ordered calls returning the same timestamp violate the spec
	// (compare(t,t) cannot be both true and false).
	var r Recorder
	s := r.Begin()
	r.End(0, 0, s, ts(7))
	s = r.Begin()
	r.End(1, 0, s, ts(7))
	if err := Check(r.Events()); err == nil {
		t.Error("equal timestamps across hb pair not detected")
	}
}

func TestCheckAllowsConcurrentAnything(t *testing.T) {
	// Overlapping intervals have no constraint, even inverted timestamps.
	var r Recorder
	s1 := r.Begin()
	s2 := r.Begin() // second starts before first ends
	r.End(0, 0, s1, ts(9))
	r.End(1, 0, s2, ts(1))
	if err := Check(r.Events()); err != nil {
		t.Errorf("concurrent events wrongly constrained: %v", err)
	}
}

func TestCheckEmptyAndSingle(t *testing.T) {
	if err := Check(nil); err != nil {
		t.Error(err)
	}
	var r Recorder
	s := r.Begin()
	r.End(0, 0, s, ts(1))
	if err := Check(r.Events()); err != nil {
		t.Error(err)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				s := r.Begin()
				r.End(p, k, s, ts(int64(p*100+k)))
			}
		}(p)
	}
	wg.Wait()
	if r.Len() != 400 {
		t.Errorf("Len = %d, want 400", r.Len())
	}
	ev := r.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i-1].Start > ev[i].Start {
			t.Fatal("Events not sorted by start")
		}
	}
}

// Property: histories generated by a monotone counter always pass; then
// flipping any single hb-ordered pair's values always fails.
func TestQuickMonotoneHistoriesPass(t *testing.T) {
	f := func(k uint8) bool {
		n := int(k%20) + 2
		var r Recorder
		for i := 0; i < n; i++ {
			s := r.Begin()
			r.End(i%3, i, s, ts(int64(i)))
		}
		if Check(r.Events()) != nil {
			return false
		}
		// Corrupt: make the last event's value smaller than the first's.
		ev := r.Events()
		ev[len(ev)-1].Val = ts(ev[0].Val.Rnd - 1)
		return Check(ev) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
