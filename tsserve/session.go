package tsserve

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tsspace"
	"tsspace/internal/obs"
)

// Wire v2: session-scoped endpoints. A remote caller attaches once into
// a namespace ("default" for the daemon's own object), pipelines any
// number of session-scoped batches over the same lease, and detaches
// explicitly — the SDK's lease/churn semantics over HTTP instead of one
// hidden attach per batch:
//
//	POST   /ns/{name}/session       → {"session_id", "namespace", "pid", "idle_ttl_ms", "one_shot"}
//	POST   /ns/{name}/session/{id}/getts {"count": k} → {"pid": p, "timestamps": [...]}
//	DELETE /ns/{name}/session/{id}  → {"calls": c}
//
// A server-side session whose lease sits idle longer than the configured
// TTL is reaped (detached and its pid recycled), so abandoned remote
// clients cannot pin paper-processes forever; a request with a reaped or
// unknown id gets 404/unknown_session, which the Go client maps to
// tsspace.ErrDetached. A one-shot lease ends with its getTS: the server
// retires it before answering, so its client detaches without a request.

// AttachResponse is the body of POST /ns/{name}/session: a leased
// server-side session, bound into the named namespace. The lease is
// renewed by every session-scoped request; after IdleTTLMs without one
// it may be reaped. OneShot marks a lease of a one-shot object: the
// getTS that issues its timestamp also retires it, so a later detach
// has nothing to release and a second getTS nothing to serve.
type AttachResponse struct {
	SessionID string `json:"session_id"`
	Namespace string `json:"namespace"`
	Pid       int    `json:"pid"`
	IdleTTLMs int64  `json:"idle_ttl_ms"`
	OneShot   bool   `json:"one_shot"`
}

// DetachResponse is the body of DELETE /ns/{name}/session/{id}. Calls is
// the number of timestamps the session issued over its lifetime.
type DetachResponse struct {
	Calls int `json:"calls"`
}

// wireSession is one leased SDK session addressable over the wire — by
// HTTP and binary clients alike, since both protocols share this table.
type wireSession struct {
	id string
	// idNum is the id's numeric value (the same 8 random bytes id
	// hex-encodes), the form the flight recorder stores per event.
	idNum uint64
	sess  *tsspace.Session
	// ns is the namespace the lease is bound into; it holds one of the
	// namespace's quota slots from attach to retire. Set at attach,
	// never changed.
	ns *namespace
	// owner is the binary connection that attached the lease, nil over
	// HTTP: that connection's teardown retires exactly the leases naming
	// it, and /metrics counts the leases with an owner as binary.
	owner *binServerConn
	// mu serializes session-scoped batches: the SDK session is one logical
	// client, so concurrent HTTP requests against the same id queue here
	// instead of racing the sequential operation stream.
	mu   sync.Mutex
	last atomic.Int64 // unix nanos of the last completed request; drives reaping
}

// object resolves the Object the lease is bound into — the
// namespace-routing step on the batch hot path of both transports.
// Annotated as a tslint hotpath root so the analyzer guards it.
//
//tslint:hotpath
func (ws *wireSession) object() *tsspace.Object { return ws.ns.obj }

// retireReason is why a lease leaves the session table; retire books
// each reason's own counter and flight-recorder event.
type retireReason uint8

const (
	retireDetach      retireReason = iota // an explicit detach, over either wire
	retireReap                            // idle past the TTL
	retireCrash                           // its binary connection closed while attached
	retireDeprovision                     // its namespace was deprovisioned
	retireClose                           // the server shut down
)

// newSessionID returns a 16-hex-digit random id, both as the wire
// string and as its numeric value (for the flight recorder). Ids are
// capability-ish tokens: unguessable enough that one client cannot
// plausibly stumble into another's lease on a shared daemon.
func newSessionID() (string, uint64) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("tsserve: crypto/rand failed: %v", err))
	}
	return hex.EncodeToString(b[:]), binary.BigEndian.Uint64(b[:])
}

// sessionIDNum parses a wire session id back to its numeric form for
// the flight recorder, so error events name the id the caller asked
// for. Malformed ids record as zero.
func sessionIDNum(id string) uint64 {
	var b [8]byte
	if len(id) != 16 {
		return 0
	}
	if _, err := hex.Decode(b[:], []byte(id)); err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b[:])
}

// attach is the wire attach of both transports: it reserves a quota slot
// in ns before leasing an SDK session under ctx — so a full namespace
// answers quota_exhausted at once instead of queueing on the pid pool —
// hands the slot back if the lease fails, enters the lease in the
// session table and records the attach. owner is the attaching binary
// connection, nil over HTTP. A failure comes back with its wire code
// already booked; the transport only renders code and err.
func (s *Server) attach(ctx context.Context, ns *namespace, owner *binServerConn) (*wireSession, byte, error) {
	if !ns.reserve() {
		s.met.ring.RecordNS(obs.EventError, ns.id, 0, -1, int64(binCodeQuota))
		return nil, binCodeQuota, fmt.Errorf("namespace %q: session quota %d exhausted", ns.name, ns.maxSessions)
	}
	sess, err := ns.obj.Attach(ctx)
	if err != nil {
		ns.release()
		return nil, s.classify(ctx, ns, "", err), err
	}
	id, idNum := newSessionID()
	ws := &wireSession{id: id, idNum: idNum, sess: sess, ns: ns, owner: owner}
	ws.last.Store(time.Now().UnixNano())
	s.sessMu.Lock()
	s.sessions[id] = ws
	s.sessMu.Unlock()
	s.met.ring.RecordNS(obs.EventAttach, ns.id, idNum, int32(sess.Pid()), 0)
	return ws, 0, nil
}

// lookupIn resolves a session id addressed through ns; the boolean is
// false for unknown (or already reaped/detached) ids AND for ids bound
// into a different namespace — a capability presented on the wrong
// namespace's routes is indistinguishable from an unknown one, which
// is what keeps namespaces isolated.
func (s *Server) lookupIn(ns *namespace, id string) (*wireSession, bool) {
	s.sessMu.Lock()
	ws, ok := s.sessions[id]
	s.sessMu.Unlock()
	if !ok || !ns.holds(ws) {
		return nil, false
	}
	return ws, ok
}

// anyLease selects every lease: the binary transport addresses leases
// purely by capability, and Close retires them all.
func anyLease(*wireSession) bool { return true }

// take removes the leases sel accepts from the session table and returns
// them for the caller to retire; it is the table's only removal. Given
// ids, only those entries are considered, so a detach costs one map
// access; given none, every lease is.
func (s *Server) take(sel func(*wireSession) bool, ids ...string) []*wireSession {
	var took []*wireSession
	consider := func(id string, ws *wireSession) {
		if sel(ws) {
			delete(s.sessions, id)
			took = append(took, ws)
		}
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if len(ids) == 0 {
		for id, ws := range s.sessions {
			consider(id, ws)
		}
	}
	for _, id := range ids {
		if ws, ok := s.sessions[id]; ok {
			consider(id, ws)
		}
	}
	return took
}

// retire ends a lease take has removed from the table, and is the only
// code that does: it waits out a batch in flight, hands the quota slot
// back, books why, and detaches the SDK session. The detach comes last
// because it frees the pid: whoever observes that — the next attach —
// finds the books already settled. A reaped lease arrives already
// locked — the reaper's TryLock is what proved it idle — so no batch
// can start between that check and the detach. It returns the session's
// lifetime call count.
func (s *Server) retire(ws *wireSession, why retireReason) int {
	if why != retireReap {
		ws.mu.Lock()
	}
	defer ws.mu.Unlock()
	calls, pid := ws.sess.Calls(), ws.sess.Pid()
	ws.ns.release()
	kind := obs.EventDetach
	switch why {
	case retireReap:
		kind = obs.EventReap
		ws.ns.reaped.Add(1)
		s.met.reaped.Inc()
	case retireCrash:
		kind = obs.EventCrash
		s.met.crashReclaimed.Inc()
	}
	if why != retireClose {
		s.met.ring.RecordNS(kind, ws.ns.id, ws.idNum, int32(pid), int64(calls))
	}
	_ = ws.sess.Detach() // idempotent; it reports no failure
	return calls
}

// issue runs one batch into buf on ws's lease, for either wire: it
// queues behind any other request on the lease and renews the lease's
// activity stamp at both ends. On a one-shot object the lease has
// nothing left to serve once its timestamp is issued, so issue retires
// it as a detach — take + retire, the one lease lifecycle — before the
// caller can answer; the client then detaches without a request.
func (s *Server) issue(ctx context.Context, ws *wireSession, buf []tsspace.Timestamp) (int, error) {
	ws.mu.Lock()
	ws.last.Store(time.Now().UnixNano()) // renew at start too: a long batch is not idle
	n, err := ws.sess.GetTSBatch(ctx, buf)
	ws.last.Store(time.Now().UnixNano())
	ws.mu.Unlock()
	if err == nil && ws.object().OneShot() {
		for _, spent := range s.take(anyLease, ws.id) {
			s.retire(spent, retireDetach)
		}
	}
	return n, err
}

// retireWhere takes every lease sel accepts and retires each for why,
// returning how many it retired.
func (s *Server) retireWhere(why retireReason, sel func(*wireSession) bool) int {
	took := s.take(sel)
	for _, ws := range took {
		s.retire(ws, why)
	}
	return len(took)
}

// rejectUnknownSession books a session-scoped request against an id the
// table does not hold — detached, reaped, never attached, or (over HTTP)
// bound into another namespace: the unknown-session counter and one
// error event in namespace nsID's stream. It is the one path for that
// rejection on both wires, and returns the error message.
func (s *Server) rejectUnknownSession(nsID uint32, id string) string {
	s.met.unknownSessions.Inc()
	s.met.ring.RecordNS(obs.EventError, nsID, sessionIDNum(id), -1, int64(binCodeUnknownSession))
	return fmt.Sprintf("unknown session %q (detached, reaped, or never attached)", id)
}

// reapLoop detaches sessions whose lease has been idle past the TTL. It
// runs until Close.
func (s *Server) reapLoop() {
	interval := s.sessionTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			s.reapIdle(now)
		}
	}
}

// reapIdle retires every session idle at now. A session is idle only
// when its last activity stamp — renewed at batch start and end — is
// past the TTL AND no request is in flight on it (TryLock), so a slow
// batch longer than the TTL is never yanked and never costs the client
// its lease.
func (s *Server) reapIdle(now time.Time) {
	cutoff := now.Add(-s.sessionTTL).UnixNano()
	s.retireWhere(retireReap, func(ws *wireSession) bool {
		return ws.last.Load() < cutoff && ws.mu.TryLock()
	})
}

// Close stops the idle reaper, shuts the binary listeners and
// connections (after a short grace for in-flight frames), detaches
// every live wire session in every namespace (recycling their pids),
// and drops and closes every provisioned namespace's Object. It leaves
// "default" in the table and its object open (the caller owns it), and
// is idempotent. Close the server before that object on shutdown.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.binCancel()
	s.closeBinary()
	s.retireWhere(retireClose, anyLease)
	s.nsMu.Lock()
	provisioned := s.namespaces
	s.namespaces = map[string]*namespace{DefaultNamespace: provisioned[DefaultNamespace]}
	s.nsMu.Unlock()
	for _, ns := range provisioned {
		if ns.owned {
			_ = ns.obj.Close()
		}
	}
	return nil
}

// handleAttach is POST /ns/{name}/session: lease an SDK session in the
// resolved namespace for this caller.
func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.requestNS(w, r)
	if !ok {
		return
	}
	var req struct{} // attach takes no parameters; reject unknown fields
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	ws, code, err := s.attach(r.Context(), ns, nil)
	if err != nil {
		writeCode(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, AttachResponse{
		SessionID: ws.id,
		Namespace: ns.name,
		Pid:       ws.sess.Pid(),
		IdleTTLMs: s.sessionTTL.Milliseconds(),
		OneShot:   ns.obj.OneShot(),
	})
}

// handleSessionGetTS is POST /ns/{name}/session/{id}/getts: one batch on
// the caller's leased session. Requests against the same id serialize, so a
// pipelining client sees the SDK's sequential-session semantics; a
// one-shot lease is retired before the answer goes out.
func (s *Server) handleSessionGetTS(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.requestNS(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	ws, ok := s.lookupIn(ns, id)
	if !ok {
		writeCode(w, binCodeUnknownSession, s.rejectUnknownSession(ns.id, id))
		return
	}
	var req GetTSRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	count := req.Count
	if count < 1 {
		count = 1
	}
	if count > s.maxBatch {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("count %d exceeds the batch cap %d", count, s.maxBatch))
		return
	}
	if ns.obj.OneShot() && count > 1 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("a one-shot object issues one timestamp per process; ask for count 1, not %d", count))
		return
	}

	buf := make([]tsspace.Timestamp, count)
	n, err := s.issue(r.Context(), ws, buf)
	if err != nil {
		// A short batch burns nothing the caller can recover over the wire:
		// report the failure (with how far the batch got) and let the
		// client retry on a fresh request.
		err = fmt.Errorf("timestamp %d/%d: %w", n+1, count, err)
		writeCode(w, s.classify(r.Context(), ns, id, err), err.Error())
		return
	}
	resp := GetTSResponse{Pid: ws.sess.Pid(), Timestamps: make([]TS, n)}
	for i := 0; i < n; i++ {
		resp.Timestamps[i] = FromTimestamp(buf[i])
	}
	s.met.batches.Inc()
	writeJSON(w, http.StatusOK, resp)
}

// handleDetach is DELETE /ns/{name}/session/{id}: return the lease
// explicitly.
func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.requestNS(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	took := s.take(ns.holds, id)
	if len(took) == 0 {
		writeCode(w, binCodeUnknownSession, s.rejectUnknownSession(ns.id, id))
		return
	}
	writeJSON(w, http.StatusOK, DetachResponse{Calls: s.retire(took[0], retireDetach)})
}
