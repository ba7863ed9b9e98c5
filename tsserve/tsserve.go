// Package tsserve puts a tsspace timestamp object behind an HTTP/JSON
// front end, plus the matching Go client. It is the network form of the
// paper's object: the endpoints expose getTS() and nothing of the
// register machinery. compare(t1, t2) reads no register, so it has no
// endpoint; clients order timestamps locally with tsspace.Less.
//
// Every object the server holds is a namespace (broker.go), the
// daemon's constructor object included: it is the namespace "default".
// Wire v2 is session-scoped, mirroring the SDK's SessionAPI — attach a
// lease in a namespace, pipeline batches on it, detach (idle leases are
// reaped):
//
//	POST   /ns/{name}/session       → {"session_id", "namespace", "pid", "idle_ttl_ms", "one_shot"}
//	POST   /ns/{name}/session/{id}/getts {"count": k} → {"pid": p, "timestamps": [{"rnd": r, "turn": t}, ...]}
//	DELETE /ns/{name}/session/{id}  → {"calls": c}
//	GET    /ns/{name}/healthz       → the namespace's object identity and status
//	GET    /healthz                 → /ns/default/healthz: the liveness probe
//	GET    /metrics                 → per-namespace counts and space, wire counters,
//	                                  per-endpoint latency percentiles
//
// Wire v3 is the same session surface over a persistent-connection,
// length-prefixed binary protocol (ServeBinary / BinaryClient — see
// binary.go for the framing), sharing the lease table, TTL reaper and
// typed error codes with the endpoints above; it exists because E13
// measured HTTP/JSON at ~100× the algorithm's in-process cost. Its one
// attach frame names the namespace too.
//
// Either way a batch is issued back to back by one paper-process, so each
// timestamp happens-before the next and tsspace.Less must order the
// batch strictly — the invariant the tests check on what the wire
// returns, and the root package's TestCLITsserved on a spawned daemon.
// On a one-shot object (the paper's §4 and §6 model: one getTS per
// process) a lease is one call long. The attach reply says so on both
// wires, the getTS that issues the timestamp retires the lease before
// answering, and the client's Detach sends nothing — attach, getTS,
// detach in two round trips.
// Across sessions, the object's pid leasing maps any number of concurrent
// HTTP clients onto the configured n paper-processes; when all are
// leased, attaches queue under the request context.
//
// The daemon in cmd/tsserved is a thin flag wrapper around NewServer;
// tests and embedders can mount the Server on any mux.
package tsserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tsspace"
	"tsspace/internal/obs"
)

// TS is the wire form of a timestamp: the (rnd, turn) pair of the
// timestamp universe ℕ × (ℕ ∪ {0}), ordered lexicographically by
// tsspace.Less.
type TS struct {
	Rnd  int64 `json:"rnd"`
	Turn int64 `json:"turn"`
}

// FromTimestamp converts an SDK timestamp to its wire form.
func FromTimestamp(t tsspace.Timestamp) TS { return TS{Rnd: t.Rnd, Turn: t.Turn} }

// Timestamp converts the wire form back to an SDK timestamp.
func (t TS) Timestamp() tsspace.Timestamp { return tsspace.Timestamp{Rnd: t.Rnd, Turn: t.Turn} }

// GetTSRequest asks for a batch of count timestamps issued by one session
// (count < 1 means 1).
type GetTSRequest struct {
	Count int `json:"count"`
}

// GetTSResponse carries the batch in issue order: Timestamps[i]
// happens-before Timestamps[i+1]. Pid is the paper-process that served the
// batch (diagnostic only).
type GetTSResponse struct {
	Pid        int  `json:"pid"`
	Timestamps []TS `json:"timestamps"`
}

// Health is the /healthz body (also served per namespace at
// /ns/{name}/healthz, reporting that namespace's Object).
type Health struct {
	Status    string `json:"status"`
	Namespace string `json:"namespace"`
	Algorithm string `json:"algorithm"`
	Summary   string `json:"summary,omitempty"`
	Procs     int    `json:"procs"`
	Registers int    `json:"registers"`
	OneShot   bool   `json:"one_shot"`
}

// Latency is the per-endpoint latency section of /metrics: a percentile
// digest (nanoseconds, measured server-side around the whole handler) per
// operation, keyed "attach" and "getts" for the HTTP handlers and
// "binary_getts" for the wire-v3 getts frame. An operation appears once
// it has been served. Digests come from the same log-bucketed histograms
// the tsload driver uses, so server-side and driver-side percentiles are
// directly comparable.
type Latency struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P90Ns  int64   `json:"p90_ns"`
	P99Ns  int64   `json:"p99_ns"`
	P999Ns int64   `json:"p999_ns"`
	MaxNs  int64   `json:"max_ns"`
}

// Metrics is the /metrics body: each namespace's object counts and space
// report in Namespaces, next to the server-wide wire counters and
// per-endpoint latency percentiles.
type Metrics struct {
	Batches uint64 `json:"batches"`
	// WireSessions counts every live wire lease (HTTP and binary — both
	// protocols share one session table); BinarySessions the subset
	// attached over the binary transport; ReapedSessions the idle leases
	// the TTL reaper has detached over the server's lifetime.
	// CrashReclaimed counts leases reclaimed because their binary
	// connection closed while still attached — the reaper's sibling
	// channel: a lease abandoned by a crashed or disconnected binary
	// client is returned to the pool by connection teardown when that
	// beats the idle TTL.
	WireSessions   int    `json:"wire_sessions"`
	BinarySessions int    `json:"binary_sessions"`
	ReapedSessions uint64 `json:"reaped_sessions"`
	CrashReclaimed uint64 `json:"crash_reclaimed_sessions"`
	// BinaryFrames and the byte counters track the wire-v3 transport:
	// frames processed (requests) and bytes in/out, magic and length
	// prefixes included.
	BinaryFrames   uint64 `json:"binary_frames"`
	BinaryBytesIn  uint64 `json:"binary_bytes_in"`
	BinaryBytesOut uint64 `json:"binary_bytes_out"`
	// The rejection counters: binary frames over MaxBinaryFrame,
	// connections dropped at the magic check, and session-scoped
	// requests against ids that are not (or no longer) leased. The same
	// families appear in the Prometheus exposition as
	// tsserve_rejected_frames_oversized_total,
	// tsserve_rejected_conns_bad_magic_total and
	// tsserve_unknown_sessions_total.
	OversizedFrames uint64 `json:"oversized_frames"`
	BadMagicConns   uint64 `json:"bad_magic_conns"`
	UnknownSessions uint64 `json:"unknown_sessions"`
	// UnknownNamespaces counts namespace-scoped requests against names
	// that are not (or no longer) provisioned — the broker's own
	// rejection class, deliberately separate from UnknownSessions.
	UnknownNamespaces uint64  `json:"unknown_namespaces"`
	UptimeSeconds     float64 `json:"uptime_seconds"`
	// Space repeats the default namespace's space report. It stays only
	// for the benchmark's reader; read Namespaces instead.
	Space *tsspace.Space `json:"space,omitempty"`
	// Namespaces reports every live namespace, "default" included,
	// sorted by name — the JSON rendering of the same per-namespace
	// series the Prometheus view exposes as {namespace="..."} labels.
	Namespaces []NamespaceMetrics `json:"namespaces"`
	Latency    map[string]Latency `json:"latency,omitempty"`
}

// NamespaceMetrics is one namespace's slice of /metrics: identity,
// session accounting and its register-space report, the Object's own
// tsspace.Space. Every provisioned namespace meters; only a default
// Object an embedder built without tsspace.WithMetering has no Space.
// The same numbers render in the Prometheus view as the
// namespace-labeled families tsserve_ns_sessions,
// tsserve_ns_calls_total, tsserve_ns_attaches_total,
// tsserve_ns_reaped_total, tsserve_ns_quota_rejections_total and
// tsspace_registers_*. Calls and Attaches are the Object's own counts,
// wire and in-process; WireSessions counts live wire leases only.
type NamespaceMetrics struct {
	Name            string         `json:"name"`
	Algorithm       string         `json:"algorithm"`
	Procs           int            `json:"procs"`
	OneShot         bool           `json:"one_shot"`
	MaxSessions     int            `json:"max_sessions,omitempty"`
	Calls           uint64         `json:"calls"`
	Attaches        uint64         `json:"attaches"`
	WireSessions    int64          `json:"wire_sessions"`
	ReapedSessions  uint64         `json:"reaped_sessions"`
	QuotaRejections uint64         `json:"quota_rejections"`
	Space           *tsspace.Space `json:"space,omitempty"`
}

// Error codes carried in error bodies, so clients can map failures back to
// the SDK's typed errors without string matching.
const (
	CodeBadRequest = "bad_request"
	CodeExhausted  = "exhausted"
	CodeClosed     = "closed"
	CodeInternal   = "internal"
	// CodeUnknownSession marks a session-scoped request whose id is not
	// (or no longer) leased: detached, idle-reaped, or never attached.
	// The Go client maps it to tsspace.ErrDetached.
	CodeUnknownSession = "unknown_session"
	// CodeUnknownNamespace marks a namespace-scoped request against a
	// name that was never provisioned or is already deprovisioned —
	// deliberately distinct from unknown_session, so namespace typos
	// keep their own rejection family. Maps to ErrUnknownNamespace.
	CodeUnknownNamespace = "unknown_namespace"
	// CodeNamespaceExists marks a PUT /ns/{name} whose name is already
	// provisioned with a different spec. Maps to ErrNamespaceExists.
	CodeNamespaceExists = "namespace_exists"
	// CodeQuota marks an attach beyond the namespace's session quota or
	// a provision beyond the server's namespace cap. Maps to ErrQuota.
	CodeQuota = "quota_exhausted"
)

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// ServerConfig tunes NewServer.
type ServerConfig struct {
	// MaxBatch caps the count of one getts request or frame; values < 1
	// mean 1024.
	MaxBatch int
	// SessionTTL is how long a wire session's lease may sit idle before
	// the reaper detaches it and recycles its pid. Values <= 0 mean 60s.
	SessionTTL time.Duration
}

const (
	// slowOp is the duration above which an operation is recorded in the
	// flight recorder as a slow-op event (see EventsHandler).
	slowOp = 10 * time.Millisecond
	// maxNamespaces caps how many namespaces may be provisioned at once
	// ("default", which is never provisioned, not counted); a PUT
	// /ns/{name} beyond the cap is rejected with quota_exhausted.
	maxNamespaces = 64
)

// Server is the HTTP front end over a broker of tsspace Objects: the
// constructor's Object is the always-present "default" entry of the
// namespace table, and PUT /ns/{name} provisions further named Objects
// next to it (see broker.go). It implements http.Handler. Call Close on
// shutdown (before closing the default object) to stop the idle
// reaper, release live wire sessions, and close every provisioned
// namespace's Object.
type Server struct {
	maxBatch   int
	sessionTTL time.Duration
	start      time.Time
	mux        *http.ServeMux
	// met is the observability core: every counter, gauge and latency
	// histogram the server publishes, plus the flight recorder. The JSON
	// /metrics view and the Prometheus exposition both render from it.
	met *serverMetrics

	// The namespace table, "default" included; nsSeq hands out
	// flight-recorder namespace ids.
	nsMu       sync.RWMutex
	namespaces map[string]*namespace
	nsSeq      uint32

	// sessions is the one capability-addressed lease table both
	// transports and all namespaces share: ids are unguessable, so the
	// flat map is equivalent to a per-namespace table while keeping the
	// hot-path lookup a single allocation-free map access. Each
	// wireSession carries its namespace; namespace-scoped HTTP routes
	// additionally check the binding.
	sessMu   sync.Mutex
	sessions map[string]*wireSession
	stop     chan struct{}
	stopOnce sync.Once

	// Wire-v3 binary transport state: the listeners ServeBinary runs on,
	// the live connections (closed on shutdown), and an in-flight frame
	// gauge for the drain. binCtx is the server-side context binary
	// operations run under; Close cancels it.
	binCtx       context.Context
	binCancel    context.CancelFunc
	binMu        sync.Mutex
	binListeners []net.Listener
	binConns     map[net.Conn]struct{}
	binBusy      atomic.Int64
}

// NewServer builds the front end for obj, which becomes the "default"
// namespace: flight-recorder id 0, no session quota. The caller keeps
// ownership of obj (and closes it on shutdown, after Close-ing the
// server); Objects provisioned later via PUT /ns/{name} are
// broker-owned and closed by Close.
func NewServer(obj *tsspace.Object, cfg ServerConfig) *Server {
	maxBatch := cfg.MaxBatch
	if maxBatch < 1 {
		maxBatch = 1024
	}
	ttl := cfg.SessionTTL
	if ttl <= 0 {
		ttl = 60 * time.Second
	}
	s := &Server{
		maxBatch: maxBatch, sessionTTL: ttl,
		start: time.Now(), mux: http.NewServeMux(),
		namespaces: make(map[string]*namespace),
		sessions:   make(map[string]*wireSession),
		stop:       make(chan struct{}),
		binConns:   make(map[net.Conn]struct{}),
	}
	s.namespaces[DefaultNamespace] = &namespace{
		name: DefaultNamespace, obj: obj,
		summary:   algorithmSummary(obj.Algorithm()),
		algorithm: obj.Algorithm(), procs: obj.Procs(),
	}
	s.met = newServerMetrics(s)
	s.binCtx, s.binCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		r.SetPathValue("name", DefaultNamespace)
		s.handleHealthz(w, r)
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics/prometheus", s.handlePrometheus)
	// The broker surface (broker.go) plus the wire-v2 session routes of
	// every namespace; {name} resolves through requestNS.
	s.mux.HandleFunc("GET /catalog", s.handleCatalog)
	s.mux.HandleFunc("GET /ns", s.handleNamespaces)
	s.mux.HandleFunc("PUT /ns/{name}", s.handleProvision)
	s.mux.HandleFunc("DELETE /ns/{name}", s.handleDeprovision)
	s.mux.HandleFunc("POST /ns/{name}/session", s.timed("attach", s.handleAttach))
	s.mux.HandleFunc("POST /ns/{name}/session/{id}/getts", s.timed("getts", s.handleSessionGetTS))
	s.mux.HandleFunc("DELETE /ns/{name}/session/{id}", s.handleDetach)
	s.mux.HandleFunc("GET /ns/{name}/healthz", s.handleHealthz)
	go s.reapLoop()
	return s
}

// timed records the whole handler's wall time — decode to flush — into the
// endpoint's histogram, so /metrics reports what callers of that endpoint
// experienced minus only the network. Durations over the slow-op
// threshold additionally land in the flight recorder.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.met.lat[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		d := time.Since(start)
		lat.Record(d.Nanoseconds())
		if d > slowOp {
			s.met.ring.Record(obs.EventSlowOp, 0, -1, d.Nanoseconds())
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// classify maps an SDK error to its wire code and books it, once for
// both transports: an error event in ns's flight-recorder stream naming
// the lease id ("" when there is none), with ErrDetached — the lease
// vanished between lookup and execution, because the reaper or a
// concurrent detach won the race — rejected as an unknown session. A
// failure caused by ctx ending (the caller went away) is internal and
// books nothing. Transports only render the returned code.
func (s *Server) classify(ctx context.Context, ns *namespace, id string, err error) byte {
	code := binCodeInternal
	switch {
	case errors.Is(err, tsspace.ErrExhausted) || errors.Is(err, tsspace.ErrOneShot):
		code = binCodeExhausted
	case errors.Is(err, tsspace.ErrDetached):
		s.rejectUnknownSession(ns.id, id)
		return binCodeUnknownSession
	case errors.Is(err, tsspace.ErrClosed):
		code = binCodeClosed
	case ctx.Err() != nil:
		return binCodeInternal
	}
	s.met.ring.RecordNS(obs.EventError, ns.id, sessionIDNum(id), -1, int64(code))
	return code
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.requestNS(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, Health{
		Status:    "ok",
		Namespace: ns.name,
		Algorithm: ns.obj.Algorithm(),
		Summary:   ns.summary,
		Procs:     ns.obj.Procs(),
		Registers: ns.obj.Registers(),
		OneShot:   ns.obj.OneShot(),
	})
}

// decode reads a JSON body strictly; an empty body decodes to the zero
// request.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorBody{Code: code, Error: msg})
}

// writeCode answers with the error body of a wire code from the lease
// paths, at the HTTP status that code stands for.
func writeCode(w http.ResponseWriter, code byte, msg string) {
	status := http.StatusInternalServerError
	switch code {
	case binCodeExhausted:
		status = http.StatusConflict
	case binCodeClosed:
		status = http.StatusServiceUnavailable
	case binCodeUnknownSession:
		status = http.StatusNotFound
	case binCodeQuota:
		status = http.StatusTooManyRequests
	}
	writeError(w, status, binCodeString(code), msg)
}
