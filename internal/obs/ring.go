package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// The flight recorder: a lock-free fixed-size ring buffer of recent
// structured events. It answers the operational question a counter
// cannot — "what was the server doing just before this?" — by keeping
// the last few thousand attach/detach/reap/crash/error/slow-op events
// with per-event monotonic timestamps and session ids, recordable from
// any request path at the cost of one atomic slot claim plus a handful
// of atomic stores (no locks, no allocations, no time-ordering between
// writers beyond the claim itself).
//
// Consistency model: each slot carries the sequence number that last
// wrote it as a stamp. A writer claims its slot by swapping the stamp to
// a busy marker, stores the fields, then stores its sequence number, so
// two writers of one slot never interleave their fields; a writer that
// finds a newer stamp has been lapped by a whole ring and drops its
// event rather than overwrite a newer one. A reader accepts a slot only
// when the stamp reads the expected sequence number both before and
// after the field loads — Go atomics are sequentially consistent, so a
// writer lapping the ring mid-read is detected and the slot dropped
// rather than surfaced torn.
// Dropped slots are possible only when a writer laps the entire ring
// during one snapshot, which at practical ring sizes means the
// recording rate exceeds millions of events per second — and the
// recorder is wired to edge events (session lifecycle, failures, slow
// ops), not to the per-timestamp fast path.

// EventKind classifies one flight-recorder event.
type EventKind uint8

const (
	// EventAttach: a session lease was handed out (Session = wire id,
	// Pid = the leased paper-process).
	EventAttach EventKind = 1 + iota
	// EventDetach: a lease was returned explicitly (Detail = the
	// session's lifetime getTS count).
	EventDetach
	// EventReap: an idle lease was force-detached by the daemon's reaper.
	EventReap
	// EventCrash: a lease was released because its owner vanished
	// without detaching (connection drop, abandoned client).
	EventCrash
	// EventError: a request was answered with an error (Detail = the
	// wire error class).
	EventError
	// EventSlowOp: an operation exceeded the server's slow-op
	// threshold (Detail = its duration in nanoseconds).
	EventSlowOp
)

// String names the kind for dumps; unknown kinds render as "unknown".
func (k EventKind) String() string {
	switch k {
	case EventAttach:
		return "attach"
	case EventDetach:
		return "detach"
	case EventReap:
		return "reap"
	case EventCrash:
		return "crash"
	case EventError:
		return "error"
	case EventSlowOp:
		return "slow_op"
	}
	return "unknown"
}

// Event is one recorded event, as surfaced by Snapshot. TimeNs is
// monotonic nanoseconds since the ring was created (diffable between
// events; not wall time). Session is the 64-bit session id (0 when the
// event has none), Pid the paper-process (-1 when none), NS the
// recorder-assigned namespace id the event happened in (0 for the
// default namespace; 24 bits), Detail a kind-specific value.
type Event struct {
	Seq     uint64
	TimeNs  int64
	Kind    EventKind
	Session uint64
	Pid     int32
	NS      uint32
	Detail  int64
}

// slotBusy is the stamp of a slot whose writer is storing its fields. It
// is never a sequence number, so readers skip the slot.
const slotBusy = ^uint64(0)

// ringSlot is one ring entry. All fields are atomics so concurrent
// writers and snapshot readers are race-clean; stamp validates the rest.
type ringSlot struct {
	stamp   atomic.Uint64
	timeNs  atomic.Int64
	meta    atomic.Uint64 // kind in bits 0..7, pid (as uint32) in bits 8..39, namespace id in bits 40..63
	session atomic.Uint64
	detail  atomic.Int64
}

// Ring is the flight recorder. Construct with NewRing; the zero value
// is not ready for use.
type Ring struct {
	start time.Time
	mask  uint64
	seq   atomic.Uint64
	slots []ringSlot
}

// DefaultRingSize is the capacity NewRing rounds to when given size <= 0.
const DefaultRingSize = 4096

// NewRing returns a flight recorder holding the most recent size events
// (rounded up to a power of two, minimum 16; size <= 0 means
// DefaultRingSize).
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 16
	for n < size {
		n <<= 1
	}
	return &Ring{start: time.Now(), mask: uint64(n - 1), slots: make([]ringSlot, n)}
}

// Cap returns the ring's capacity in events.
func (r *Ring) Cap() int { return len(r.slots) }

// Recorded returns the total number of events ever recorded (the ring
// retains the most recent Cap of them).
func (r *Ring) Recorded() uint64 { return r.seq.Load() }

// Record appends one event in the default namespace (id 0): an atomic
// sequence claim, a compare-and-swap claiming the slot and five atomic
// stores, no locks and no allocations — safe to call from any request
// path.
//
//tslint:hotpath
func (r *Ring) Record(kind EventKind, session uint64, pid int32, detail int64) {
	r.RecordNS(kind, 0, session, pid, detail)
}

// RecordNS is Record with an explicit namespace id. The id is a
// recorder-local tag (the server assigns one per provisioned
// namespace); only the low 24 bits are retained.
//
//tslint:hotpath
func (r *Ring) RecordNS(kind EventKind, ns uint32, session uint64, pid int32, detail int64) {
	i := r.seq.Add(1) // 1-based: stamp 0 means empty
	s := &r.slots[(i-1)&r.mask]
	for {
		old := s.stamp.Load()
		if old == slotBusy {
			runtime.Gosched() // the slot's previous writer is mid-store
			continue
		}
		if old >= i {
			return // lapped: the ring already holds a newer event here
		}
		if s.stamp.CompareAndSwap(old, slotBusy) {
			break
		}
	}
	s.timeNs.Store(int64(time.Since(r.start)))
	s.meta.Store(uint64(kind) | uint64(uint32(pid))<<8 | uint64(ns&0xffffff)<<40)
	s.session.Store(session)
	s.detail.Store(detail)
	s.stamp.Store(i)
}

// Snapshot copies the most recent events into dst in recording order
// (oldest first) and returns how many were copied: up to len(dst), up
// to the ring's capacity, up to what has been recorded. Slots a
// concurrent writer holds or has lapped are skipped, never surfaced
// torn. Snapshot allocates nothing beyond what the caller passed in.
func (r *Ring) Snapshot(dst []Event) int {
	top := r.seq.Load()
	if top == 0 || len(dst) == 0 {
		return 0
	}
	lo := uint64(1)
	if span := uint64(len(r.slots)); top > span {
		lo = top - span + 1
	}
	if span := uint64(len(dst)); top-lo+1 > span {
		lo = top - span + 1
	}
	n := 0
	for i := lo; i <= top; i++ {
		s := &r.slots[(i-1)&r.mask]
		if s.stamp.Load() != i {
			continue // lapped or still being written
		}
		e := Event{
			Seq:     i,
			TimeNs:  s.timeNs.Load(),
			Session: s.session.Load(),
			Detail:  s.detail.Load(),
		}
		meta := s.meta.Load()
		e.Kind = EventKind(meta & 0xff)
		e.Pid = int32(uint32(meta >> 8))
		e.NS = uint32(meta >> 40)
		if s.stamp.Load() != i {
			continue // a writer lapped us mid-read: the fields are torn
		}
		dst[n] = e
		n++
	}
	return n
}
