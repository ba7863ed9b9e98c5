// Package hbcheck validates the timestamp specification on executions.
//
// The specification (§2 of the paper) is the only correctness requirement a
// timestamp object has: if getTS() instance g1 returning t1 happens before
// getTS() instance g2 returning t2 (g1's response precedes g2's
// invocation), then compare(t1, t2) = true and compare(t2, t1) = false.
// compare is timestamp.Less, a strict total order, so a pair g1 → g2
// violates the specification iff t2 ≤ t1.
//
// The recorder stamps invocations and responses with a global atomic clock;
// a pair of events with e1.End < e2.Start is then a sound happens-before
// witness in any execution of this process (real-concurrent or simulated:
// a simulated execution is still a real execution, merely serialized).
// Any other clock whose stamps are ordered like real time works too; tsload
// stamps its operations with monotonic time offsets.
package hbcheck

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tsspace/internal/timestamp"
)

// Event is one completed getTS() instance.
type Event struct {
	Pid   int                 // process that performed the call
	Seq   int                 // per-process invocation number
	Start uint64              // clock stamp taken before the invocation
	End   uint64              // clock stamp taken after the response
	Val   timestamp.Timestamp // the returned timestamp
}

// Recorder collects getTS() intervals with a global clock. It is safe for
// concurrent use. The zero value is ready.
type Recorder struct {
	clock  atomic.Uint64
	mu     sync.Mutex
	events []Event
}

// Begin stamps an invocation; pass the returned stamp to End.
func (r *Recorder) Begin() uint64 {
	return r.clock.Add(1)
}

// End stamps the response and records the completed event.
func (r *Recorder) End(pid, seq int, start uint64, val timestamp.Timestamp) {
	end := r.clock.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Pid: pid, Seq: seq, Start: start, End: end, Val: val})
}

// Events returns a copy of the recorded events sorted by start stamp.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Violation is a happens-before pair First → Second whose timestamps do
// not order First before Second.
type Violation struct {
	First, Second Event
}

// Error renders the violation with both directions of compare.
func (v Violation) Error() string {
	t1, t2 := v.First.Val, v.Second.Val
	return fmt.Sprintf(
		"hbcheck: p%d.getTS#%d → p%d.getTS#%d but compare(%v, %v) = %v and compare(%v, %v) = %v",
		v.First.Pid, v.First.Seq, v.Second.Pid, v.Second.Seq,
		t1, t2, timestamp.Less(t1, t2),
		t2, t1, timestamp.Less(t2, t1),
	)
}

// Check verifies the happens-before property over all ordered pairs of
// events and returns the first violation (as a Violation error) or nil:
// the pair a pairwise scan of the events, stably sorted by End, meets
// first — the smallest First.End, then the smallest Second.End.
//
// It is a sort and a sweep, O(k log k) in the number of events. Walking
// the events from the latest End down, it keeps the least timestamp of
// the events that start after the current End; the current event has a
// violating successor iff its own timestamp is not below that least one.
// The last such event the walk meets is First, and a forward scan from
// it finds Second.
func Check(events []Event) error {
	byEnd := append([]Event(nil), events...)
	sort.SliceStable(byEnd, func(i, j int) bool { return byEnd[i].End < byEnd[j].End })
	byStart := append([]Event(nil), events...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].Start > byStart[j].Start })
	first, later := -1, 0 // byStart[:later] start after byEnd[i].End
	var least timestamp.Timestamp
	for i := len(byEnd) - 1; i >= 0; i-- {
		for ; later < len(byStart) && byStart[later].Start > byEnd[i].End; later++ {
			if later == 0 || timestamp.Less(byStart[later].Val, least) {
				least = byStart[later].Val
			}
		}
		if later > 0 && !timestamp.Less(byEnd[i].Val, least) {
			first = i
		}
	}
	if first < 0 {
		return nil
	}
	e1 := byEnd[first]
	for _, e2 := range byEnd[first+1:] {
		if e1.End < e2.Start && !timestamp.Less(e1.Val, e2.Val) {
			return Violation{First: e1, Second: e2}
		}
	}
	panic("hbcheck: the sweep found a violation the scan does not")
}
