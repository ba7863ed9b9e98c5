package tsserve

// The namespace broker: the subsystem that turns one daemon into a
// timestamp service broker serving many independent Objects. The shape
// is the Open Service Broker lifecycle — discover what can be served,
// provision a named instance, bind into it, release it:
//
//	GET    /catalog      → the registered algorithms (name, summary,
//	                       one-shot-ness, minimum procs)
//	GET    /ns           → the live namespace names, "default" included
//	PUT    /ns/{name}    → provision a named Object (algorithm, procs,
//	                       session quota); idempotent for an identical
//	                       spec, namespace_exists for a different one
//	DELETE /ns/{name}    → deprovision: force-detach its live leases,
//	                       close its Object; unknown_namespace if absent
//
// Binding is namespace-scoped session attach on both transports: the
// wire-v2 session endpoints under /ns/{name}/..., and the wire-v3
// attach_ns frame carrying the namespace name (binary.go).
// Every namespace keeps its own lease accounting — a session quota
// enforced at attach, per-namespace space/session/rejection series in
// both /metrics views, and a namespace id on every flight-recorder
// event — while all namespaces share one capability-addressed session
// table, so the per-frame hot path stays exactly as allocation-free as
// it was with one Object.
//
// The daemon's constructor Object is the "default" entry of the same
// table: always present, never provisioned or deprovisioned, unlimited
// quota, owned by the caller. Provisioned Objects are owned by the
// broker and closed on deprovision or server Close.

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"

	"tsspace"
	"tsspace/internal/obs"
)

// DefaultNamespace is the name under which the constructor's Object is
// always addressable. It cannot be provisioned or deprovisioned.
const DefaultNamespace = "default"

// Typed broker errors, mapped to wire codes by APIError.Is so
// errors.Is works across both transports.
var (
	// ErrNamespaceExists is returned when provisioning a name that is
	// already provisioned with a different spec (an identical spec is
	// idempotent and succeeds).
	ErrNamespaceExists = errors.New("tsserve: namespace already provisioned")
	// ErrUnknownNamespace is returned by namespace-scoped requests
	// against a name that was never provisioned or is already
	// deprovisioned.
	ErrUnknownNamespace = errors.New("tsserve: unknown namespace")
	// ErrQuota is returned when an attach would exceed the namespace's
	// session quota, or a provision the server's namespace cap.
	ErrQuota = errors.New("tsserve: quota exhausted")
)

// CatalogEntry is one algorithm in the GET /catalog body, sourced from
// the internal/timestamp registry via tsspace.Catalog().
type CatalogEntry struct {
	Name     string `json:"name"`
	Summary  string `json:"summary"`
	OneShot  bool   `json:"one_shot"`
	MinProcs int    `json:"min_procs"`
}

// CatalogResponse is the GET /catalog body.
type CatalogResponse struct {
	Algorithms []CatalogEntry `json:"algorithms"`
}

// NamespaceList is the GET /ns body: every live namespace name,
// "default" included, sorted.
type NamespaceList struct {
	Namespaces []string `json:"namespaces"`
}

// ProvisionRequest is the PUT /ns/{name} body. Zero values inherit
// from the default namespace's Object, so `{}` provisions a sibling of
// the daemon's own configuration. Every provisioned Object is metered:
// there is no field that turns the space measure off.
type ProvisionRequest struct {
	// Algorithm names a registry algorithm (see GET /catalog); empty
	// means the default namespace's algorithm.
	Algorithm string `json:"algorithm,omitempty"`
	// Procs is the namespace Object's paper-process count n — for a
	// one-shot algorithm also its total timestamp budget; values < 1
	// mean the default namespace's procs.
	Procs int `json:"procs,omitempty"`
	// MaxSessions caps concurrently held wire leases in this namespace
	// (both transports; 0 = unlimited). An attach beyond the cap is
	// rejected with quota_exhausted instead of queueing for a pid.
	MaxSessions int `json:"max_sessions,omitempty"`
}

// ProvisionResponse is the PUT /ns/{name} body on success. Created is
// false when an identical spec was already provisioned (the idempotent
// re-PUT).
type ProvisionResponse struct {
	Name        string `json:"name"`
	Algorithm   string `json:"algorithm"`
	Procs       int    `json:"procs"`
	Registers   int    `json:"registers"`
	OneShot     bool   `json:"one_shot"`
	MaxSessions int    `json:"max_sessions,omitempty"`
	Created     bool   `json:"created"`
}

// DeprovisionResponse is the DELETE /ns/{name} body on success.
// ReleasedSessions counts the live leases force-detached.
type DeprovisionResponse struct {
	Name             string `json:"name"`
	ReleasedSessions int    `json:"released_sessions"`
}

// namespace is one named Object and its broker-side accounting. The
// default namespace wraps the constructor's Object; provisioned ones
// own theirs.
type namespace struct {
	name string
	// id tags this namespace's flight-recorder events (0 is the
	// default namespace; provisioned namespaces count up from 1).
	id      uint32
	obj     *tsspace.Object
	summary string
	// owned marks broker-provisioned Objects, closed on deprovision
	// and server Close; the default Object stays the caller's.
	owned bool

	// The provisioned spec, kept verbatim so an identical re-PUT is
	// recognized as idempotent.
	algorithm   string
	procs       int
	maxSessions int

	// active counts live wire leases bound into this namespace; it is
	// the quota's book and the tsserve_ns_sessions gauge. reaped and
	// quotaRejections are this namespace's slices of the TTL-reap and
	// quota-rejection counters.
	active          atomic.Int64
	reaped          atomic.Uint64
	quotaRejections atomic.Uint64
}

// reserve claims one session slot, or reports quota exhaustion. The
// claim happens before the Object attach so a full namespace rejects
// immediately with a typed error instead of queueing on the pid pool.
//
//tslint:hotpath
func (n *namespace) reserve() bool {
	for {
		cur := n.active.Load()
		if n.maxSessions > 0 && cur >= int64(n.maxSessions) {
			n.quotaRejections.Add(1)
			return false
		}
		if n.active.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// release returns one session slot: retire calls it once per lease, and
// attach when its Object attach fails.
//
//tslint:hotpath
func (n *namespace) release() { n.active.Add(-1) }

// holds reports whether the lease ws is bound into n.
func (n *namespace) holds(ws *wireSession) bool { return ws.ns == n }

// validNamespaceName constrains names to [a-z0-9._-]{1,63}: safe in
// URL paths, wire frames and Prometheus label values without escaping.
func validNamespaceName(name string) bool {
	if len(name) == 0 || len(name) > 63 {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// algorithmSummary resolves an algorithm's one-line catalog summary.
func algorithmSummary(alg string) string {
	for _, e := range tsspace.Catalog() {
		if e.Name == alg {
			return e.Summary
		}
	}
	return ""
}

// resolveNS maps a wire namespace name to its live namespace.
func (s *Server) resolveNS(name string) (*namespace, bool) {
	s.nsMu.RLock()
	ns, ok := s.namespaces[name]
	s.nsMu.RUnlock()
	return ns, ok
}

// requestNS resolves the {name} path value of a namespace-scoped HTTP
// request, answering unknown_namespace (and counting the rejection in
// its own family, distinct from unknown_session) when it fails.
func (s *Server) requestNS(w http.ResponseWriter, r *http.Request) (*namespace, bool) {
	name := r.PathValue("name")
	ns, ok := s.resolveNS(name)
	if !ok {
		s.rejectUnknownNamespace()
		writeError(w, http.StatusNotFound, CodeUnknownNamespace,
			fmt.Sprintf("unknown namespace %q (never provisioned, or already deprovisioned)", name))
		return nil, false
	}
	return ns, true
}

// rejectUnknownNamespace books a request against an unprovisioned
// name: its own counter and flight-recorder error event, so namespace
// typos never fold into the unknown-session family.
func (s *Server) rejectUnknownNamespace() {
	s.met.unknownNamespaces.Inc()
	s.met.ring.Record(obs.EventError, 0, -1, int64(binCodeUnknownNamespace))
}

// namespaceList snapshots every live namespace sorted by name — the
// order of GET /ns, of the JSON namespaces section and of the samples
// of every namespace-labeled metric family.
func (s *Server) namespaceList() []*namespace {
	s.nsMu.RLock()
	out := make([]*namespace, 0, len(s.namespaces))
	for _, ns := range s.namespaces {
		out = append(out, ns)
	}
	s.nsMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// handleCatalog is GET /catalog: the algorithm registry, the broker's
// "what can be provisioned" surface.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	all := tsspace.Catalog()
	resp := CatalogResponse{Algorithms: make([]CatalogEntry, len(all))}
	for i, e := range all {
		resp.Algorithms[i] = CatalogEntry{Name: e.Name, Summary: e.Summary, OneShot: e.OneShot, MinProcs: e.MinProcs}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleNamespaces is GET /ns: the live namespace names.
func (s *Server) handleNamespaces(w http.ResponseWriter, r *http.Request) {
	var names []string
	for _, ns := range s.namespaceList() {
		names = append(names, ns.name)
	}
	writeJSON(w, http.StatusOK, NamespaceList{Namespaces: names})
}

// handleProvision is PUT /ns/{name}: create a named, metered Object, so
// every provisioned namespace reports its space on both /metrics views.
// An identical spec is idempotent (Created false); a conflicting one is
// namespace_exists; the server-wide namespace cap is quota_exhausted; a
// body with a field ProvisionRequest lacks is bad_request. The object
// builds each paper-process on its first lease, so a provision takes a
// fixed number of allocations whatever the proc count; only the sizes of
// the register array and the lease channel grow with it.
func (s *Server) handleProvision(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validNamespaceName(name) {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("invalid namespace name %q (want [a-z0-9._-]{1,63})", name))
		return
	}
	var req ProvisionRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	def, _ := s.resolveNS(DefaultNamespace)
	if req.Algorithm == "" {
		req.Algorithm = def.algorithm
	}
	if req.Procs < 1 {
		req.Procs = def.procs
	}
	if req.MaxSessions < 0 {
		req.MaxSessions = 0
	}
	if name == DefaultNamespace {
		writeError(w, http.StatusConflict, CodeNamespaceExists,
			`the "default" namespace always exists and cannot be re-provisioned`)
		return
	}

	s.nsMu.Lock()
	if existing, ok := s.namespaces[name]; ok {
		same := existing.algorithm == req.Algorithm && existing.procs == req.Procs &&
			existing.maxSessions == req.MaxSessions
		s.nsMu.Unlock()
		if same {
			writeJSON(w, http.StatusOK, provisionResponse(existing, false))
			return
		}
		writeError(w, http.StatusConflict, CodeNamespaceExists,
			fmt.Sprintf("namespace %q already provisioned with a different spec", name))
		return
	}
	if len(s.namespaces)-1 >= maxNamespaces { // "default" is not counted
		s.nsMu.Unlock()
		writeError(w, http.StatusTooManyRequests, CodeQuota,
			fmt.Sprintf("namespace cap %d reached", maxNamespaces))
		return
	}
	obj, err := tsspace.New(tsspace.WithAlgorithm(req.Algorithm), tsspace.WithProcs(req.Procs), tsspace.WithMetering())
	if err != nil {
		s.nsMu.Unlock()
		if errors.Is(err, tsspace.ErrUnknownAlgorithm) || errors.Is(err, tsspace.ErrBadOption) {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	s.nsSeq++
	ns := &namespace{
		name: name, id: s.nsSeq, obj: obj, owned: true,
		summary:   algorithmSummary(req.Algorithm),
		algorithm: req.Algorithm, procs: req.Procs, maxSessions: req.MaxSessions,
	}
	s.namespaces[name] = ns
	s.nsMu.Unlock()
	writeJSON(w, http.StatusOK, provisionResponse(ns, true))
}

func provisionResponse(ns *namespace, created bool) ProvisionResponse {
	return ProvisionResponse{
		Name: ns.name, Algorithm: ns.obj.Algorithm(), Procs: ns.obj.Procs(),
		Registers: ns.obj.Registers(), OneShot: ns.obj.OneShot(),
		MaxSessions: ns.maxSessions, Created: created,
	}
}

// handleDeprovision is DELETE /ns/{name}: drop the namespace,
// force-detach its live leases (recycling their pids), and close its
// Object. Deleting an absent name answers unknown_namespace — the
// typed signal that the namespace is already gone.
func (s *Server) handleDeprovision(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == DefaultNamespace {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			`the "default" namespace cannot be deprovisioned`)
		return
	}
	s.nsMu.Lock()
	ns, ok := s.namespaces[name]
	if ok {
		delete(s.namespaces, name)
	}
	s.nsMu.Unlock()
	if !ok {
		s.rejectUnknownNamespace()
		writeError(w, http.StatusNotFound, CodeUnknownNamespace,
			fmt.Sprintf("unknown namespace %q (never provisioned, or already deprovisioned)", name))
		return
	}
	released := s.retireWhere(retireDeprovision, ns.holds)
	_ = ns.obj.Close()
	writeJSON(w, http.StatusOK, DeprovisionResponse{Name: name, ReleasedSessions: released})
}
