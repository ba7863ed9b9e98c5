package tsspace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"tsspace/internal/register"
	"tsspace/internal/timestamp"
)

// SessionAPI is the one session surface of the repository, satisfied by
// the local Session, by tsserve.RemoteSession over the wire, and by the
// sessions tsload drives — so the same caller code (and the same
// benchmark harness) runs against all three, and the difference between
// any two is exactly the transport.
//
// GetTS issues one timestamp; GetTSBatch fills a caller-owned slice with
// len(dst) timestamps issued back to back by this session's process —
// each happens-before the next — returning how many were issued and the
// error that stopped a short batch. Detach releases whatever the session
// leases. There is no session compare: compare reads no register, so
// callers order timestamps locally with Less, whichever transport
// issued them.
type SessionAPI interface {
	GetTS(ctx context.Context) (Timestamp, error)
	GetTSBatch(ctx context.Context, dst []Timestamp) (int, error)
	Detach() error
}

// proc is one paper-process as its leases see it: the pid, its
// middleware stack over the object's shared register array, and its
// persistent getTS count. It is built on the pid's first lease and then
// travels between leases through the object's free channel, so the stack
// (and the meter handle in it) is built once per pid ever leased. seq is
// owned by the leasing session: Attach loads it, the session counts
// locally, Detach writes it back before the channel send that hands the
// proc to its next lease, so no lock guards it. The record is padded to a
// cache line so that churn on neighbouring pids never false-shares.
type proc struct {
	pid int
	mem register.Mem
	seq int64
	_   [32]byte
}

// Object is a shared timestamp object: a fixed namespace of n
// paper-processes whose ids are leased to Sessions by Attach and recycled
// by Detach. A pid's state is built on its first lease, so building an
// object takes a fixed number of allocations whatever n is. All methods
// are safe for concurrent use.
type Object struct {
	info    timestamp.Info
	alg     timestamp.Algorithm
	procs   int
	oneShot bool
	meter   *register.Meter // nil when metering is off
	base    register.Mem    // the register array every proc's stack wraps
	writers int             // the algorithm's writers per register; 0 = any writer
	leased  atomic.Int64    // pids below min(this, procs) have had a first lease
	free    chan *proc      // detached procs, in FIFO order; capacity procs
	closed  chan struct{}   // closed by Close
	once    sync.Once

	mu        sync.Mutex    // cold-path bookkeeping only: never on the GetTS path
	retired   int           // one-shot pids that spent their call
	active    int           // currently attached sessions
	exhausted chan struct{} // one-shot only: closed when retired == procs

	calls    atomic.Uint64
	attaches atomic.Uint64
}

// Algorithm returns the registry name of the implementation backing the
// object.
func (o *Object) Algorithm() string { return o.info.Name }

// Procs returns n, the number of paper-processes.
func (o *Object) Procs() int { return o.procs }

// OneShot reports whether the object issues at most one timestamp per
// process id (and therefore at most n in total).
func (o *Object) OneShot() bool { return o.oneShot }

// Registers returns the size of the object's register array — the space
// the paper's theorems bound.
func (o *Object) Registers() int { return o.alg.Registers() }

// Compare is Less. Its last caller is the benchmark in perfbench; code in
// this module orders timestamps with Less.
func (o *Object) Compare(t1, t2 Timestamp) bool { return Less(t1, t2) }

// Attach leases a process id and returns a Session bound to it. Ids never
// leased before come first, in ascending order, and never block; after
// that, Attach takes detached ids in the order they were returned. When
// every id is leased it blocks until one is recycled, ctx is done, the
// object is closed, or — for one-shot objects — the timestamp budget is
// exhausted. A closed object or a done ctx fails the call even when an
// id is free.
func (o *Object) Attach(ctx context.Context) (*Session, error) {
	select {
	case <-o.closed:
		return nil, ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := o.firstLease()
	if p == nil {
		select {
		case p = <-o.free:
		case <-o.exhausted: // nil (blocks forever) unless one-shot
			return nil, fmt.Errorf("%w: all %d process slots have issued their timestamp", ErrExhausted, o.procs)
		case <-o.closed:
			return nil, ErrClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	o.attaches.Add(1)
	s := &Session{obj: o, p: p, seq0: p.seq}
	s.seq.Store(s.seq0)
	o.mu.Lock()
	o.active++
	o.mu.Unlock()
	return s, nil
}

// firstLease claims the lowest never-leased pid and builds its proc: the
// metering layer (when on) plus the algorithm's declared writer
// discipline, so a buggy caller cannot silently break claims like
// Algorithm 2's 2-writer registers. It returns nil once all n pids have
// been leased; the counter then overshoots procs by one per Attach, far
// from overflowing an int64.
func (o *Object) firstLease() *proc {
	if pid := o.leased.Add(1) - 1; pid < int64(o.procs) {
		return &proc{pid: int(pid), mem: register.Stack(o.base, o.meter, o.writers, int(pid))}
	}
	return nil
}

// Close shuts the object down: subsequent Attach and GetTS calls report
// ErrClosed and blocked Attach calls wake up. Close is idempotent and
// does not wait for attached sessions.
func (o *Object) Close() error {
	o.once.Do(func() { close(o.closed) })
	return nil
}

// Space reports the object's register-space measure. A sample counts
// the written-register bitmap and sums one pair of counters per leased
// pid, and takes no lock the getTS path takes, so a metrics scraper can
// sample a live object. The boolean is false when the object was built
// without WithMetering, in which case only Registers is populated.
func (o *Object) Space() (Space, bool) {
	if o.meter == nil {
		return Space{Registers: o.alg.Registers()}, false
	}
	return o.meter.Totals(), true
}

// WrittenSet lists the registers written so far in increasing order. It
// is nil when the object was built without WithMetering.
func (o *Object) WrittenSet() []int {
	if o.meter == nil {
		return nil
	}
	return o.meter.WrittenSet()
}

// Stats returns the object's traffic counters.
func (o *Object) Stats() Stats {
	o.mu.Lock()
	active := o.active
	o.mu.Unlock()
	return Stats{
		Calls:          o.calls.Load(),
		Attaches:       o.attaches.Load(),
		ActiveSessions: active,
	}
}

// Stats are the object's lifetime traffic counters. The SDK reclaims no
// lease on its own, so ActiveSessions counts every session not yet
// detached, abandoned ones included.
type Stats struct {
	// Calls is the number of successful GetTS calls.
	Calls uint64
	// Attaches is the number of sessions handed out.
	Attaches uint64
	// ActiveSessions is the number of currently attached sessions.
	ActiveSessions int
}

// Session is one leased process id: the local, in-process implementation
// of SessionAPI. A session models one logical client — its GetTS and
// GetTSBatch calls must be sequential (issue them from one goroutine, or
// otherwise ordered); for parallelism attach more sessions. Detach and
// the read-only methods may be called from any goroutine once the
// operation stream has stopped. Sessions must be Detached when done so
// their process id can serve the next client: nothing in the SDK
// reclaims an abandoned session. A remote client's lease is reclaimed by
// the daemon's session TTL (tsserve), which never retires a lease with a
// batch in flight. The session holds its pid's proc for the lease, so
// the pid's memory stack and sequence count are one pointer away.
//
// The hot path is lock-free and is one loop: GetTS is a GetTSBatch of
// one. A batch checks its guards (detached flag, closed object, context)
// once, then runs the algorithm's register operations once per timestamp
// with the sequence number in a local. It publishes that number to the
// session once, at its end, and adds the whole batch to the object's call
// count with one atomic add. No session mutex and no object-wide mutex is
// taken, so sessions of the same object never serialize on SDK state,
// only on whatever registers the algorithm itself contends on.
type Session struct {
	obj  *Object
	p    *proc
	seq0 int64 // the pid's seq at Attach; Calls() = seq − seq0

	// seq is the pid's getTS count as of the last completed batch. It is
	// atomic so that read-only methods (Calls) and a late Detach race
	// cleanly with the stream; the stream itself must be sequential.
	seq      atomic.Int64
	detached atomic.Bool
}

var _ SessionAPI = (*Session)(nil)

// Pid returns the leased paper-process id (0 ≤ pid < Object.Procs). It is
// diagnostic: two sessions alive at the same time never share a pid, but
// ids are recycled across time.
func (s *Session) Pid() int { return s.p.pid }

// Calls returns the number of timestamps this session has taken. While a
// batch runs it does not count that batch yet; once the batch returns it
// is exact.
func (s *Session) Calls() int { return int(s.seq.Load() - s.seq0) }

// ready performs the per-call guards once per GetTS or per batch:
// detached, closed, context. The algorithms are wait-free, so a started
// call (or batch) always completes in a bounded number of its own steps;
// ctx is therefore checked on entry only.
func (s *Session) ready(ctx context.Context) error {
	if s.detached.Load() {
		return ErrDetached
	}
	select {
	case <-s.obj.closed:
		return ErrClosed
	default:
	}
	return ctx.Err()
}

// GetTS performs one getTS() instance as this session's process: a
// GetTSBatch of one on the stack. The sequence number the implementation
// contract requires is tracked in the session (seeded from the pid's proc
// at Attach and written back at Detach), surviving lease recycling
// without any shared lock.
//
//tslint:hotpath
func (s *Session) GetTS(ctx context.Context) (Timestamp, error) {
	var one [1]Timestamp
	if _, err := s.GetTSBatch(ctx, one[:]); err != nil {
		return Timestamp{}, err
	}
	return one[0], nil
}

// GetTSBatch fills dst with len(dst) timestamps issued back to back by
// this session's process: dst[i] happens-before dst[i+1], and the whole
// batch is ordered against any non-overlapping call anywhere on the
// object. It returns the number of timestamps issued and the error that
// cut the batch short (nil when the batch filled).
//
// The entry guards (detached, closed, ctx) run once for the whole batch
// and dst is caller-owned, so a batch performs zero allocations on top of
// the algorithm's register operations — the amortization the BENCH
// trajectory prices against batch size. An empty dst is a no-op.
//
//tslint:hotpath
func (s *Session) GetTSBatch(ctx context.Context, dst []Timestamp) (int, error) {
	if err := s.ready(ctx); err != nil {
		return 0, err
	}
	o := s.obj
	pid, mem := s.p.pid, s.p.mem
	seq := s.seq.Load()
	var err error
	n := 0
	for n < len(dst) {
		if o.oneShot && seq > 0 {
			//tslint:allow hotpath cold failure path: a conforming one-shot client never re-calls
			err = fmt.Errorf("tsspace: process %d already issued its timestamp: %w", pid, ErrOneShot)
			break
		}
		ts, gerr := o.alg.GetTS(mem, pid, int(seq))
		if gerr != nil {
			//tslint:allow hotpath algorithm failure path: an errored call has already left the zero-alloc contract
			err = fmt.Errorf("tsspace: %s p%d getTS#%d: %w", o.info.Name, pid, seq, gerr)
			break
		}
		dst[n] = ts
		n++
		seq++
	}
	if n > 0 {
		s.seq.Store(seq)
		o.calls.Add(uint64(n))
	}
	return n, err
}

// Detach releases the session's process id, writing the session's
// sequence number back to the pid's proc so the next lease continues the
// call history. On long-lived objects the id becomes leasable at once,
// behind any ids returned before it; on one-shot objects an id whose
// timestamp has been issued is retired instead (recycling it could never
// serve another GetTS), and retiring the last one trips ErrExhausted for
// future Attach calls. Detach is idempotent, but must not race a GetTS
// still in flight on this session (the session is one logical client;
// stop its operation stream first).
func (s *Session) Detach() error {
	if !s.detached.CompareAndSwap(false, true) {
		return nil
	}
	o := s.obj
	seq := s.seq.Load()
	s.p.seq = seq // ordered before the next lease by the channel send below
	o.mu.Lock()
	o.active--
	if o.oneShot && seq > 0 {
		o.retired++
		if o.retired == o.procs {
			close(o.exhausted)
		}
		o.mu.Unlock()
		return nil
	}
	o.mu.Unlock()
	o.free <- s.p // cannot block: capacity procs, one proc per pid
	return nil
}
