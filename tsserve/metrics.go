package tsserve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tsspace/internal/obs"
)

// serverMetrics is the server's half of the observability core: one
// obs.Registry holding every counter, gauge and histogram the server
// publishes, plus the flight recorder. The JSON /metrics body and the
// Prometheus exposition are both rendered from this registry — there is
// no second set of books. Two kinds of series live here:
//
//   - owned: the wire-layer counters (batches, reaped sessions, binary
//     frame/byte counts, rejected frames) and the per-endpoint latency
//     histograms are allocated here and written by the handlers; this
//     struct is their only bookkeeping location.
//   - derived: everything the SDK objects already count (calls,
//     attaches, register-space totals) and the session table's sizes
//     are sampled at scrape time via GaugeFunc, CounterVecFunc and
//     GaugeVecFunc, so the objects' own atomics stay the single source
//     of truth.
type serverMetrics struct {
	reg  *obs.Registry
	ring *obs.Ring

	// Owned wire-layer counters: this struct is where these live.
	batches *obs.Counter
	reaped  *obs.Counter
	// crashReclaimed counts leases reclaimed because their binary
	// connection closed while still attached (client crash, disconnect,
	// or a garbage-collected abandoned client conn) — the reaper's
	// sibling channel for returning pids to the pool.
	crashReclaimed *obs.Counter
	binFrames      *obs.Counter
	binBytesIn     *obs.Counter
	binBytesOut    *obs.Counter
	// Rejection counters: frames over MaxBinaryFrame, connections whose
	// first bytes were not the wire-v3 magic, session-scoped requests
	// against an id that is not (or no longer) leased, and
	// namespace-scoped requests against a name that is not (or no
	// longer) provisioned — the last two deliberately separate
	// families, so a namespace typo never masquerades as a reaped
	// session.
	oversizedFrames   *obs.Counter
	badMagicConns     *obs.Counter
	unknownSessions   *obs.Counter
	unknownNamespaces *obs.Counter

	// lat holds the per-endpoint latency histograms, keyed by the
	// /metrics JSON latency keys; the same histograms render to
	// Prometheus as tsserve_<key>_latency_ns families.
	lat map[string]*obs.Histogram
}

// latencyEndpoints are the instrumented endpoints, in the order their
// Prometheus families register. The keys double as JSON latency keys.
var latencyEndpoints = []string{"attach", "getts", "binary_getts"}

// newServerMetrics builds the registry for s. Registration happens once
// at construction; everything the request paths touch afterwards is a
// plain atomic on the returned handles.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg:  r,
		ring: obs.NewRing(obs.DefaultRingSize),

		batches:        r.Counter("tsserve_batches_total", "Completed getTS batches (HTTP and binary)."),
		reaped:         r.Counter("tsserve_reaped_sessions_total", "Idle wire sessions detached by the TTL reaper."),
		crashReclaimed: r.Counter("tsserve_crash_reclaimed_sessions_total", "Leases reclaimed because their binary connection closed while attached."),

		binFrames:   r.Counter("tsserve_binary_frames_total", "Wire-v3 request frames processed."),
		binBytesIn:  r.Counter("tsserve_binary_bytes_in_total", "Wire-v3 bytes read, framing included."),
		binBytesOut: r.Counter("tsserve_binary_bytes_out_total", "Wire-v3 bytes written, framing included."),

		oversizedFrames:   r.Counter("tsserve_rejected_frames_oversized_total", "Wire-v3 frames rejected for exceeding the size cap."),
		badMagicConns:     r.Counter("tsserve_rejected_conns_bad_magic_total", "Binary connections dropped for a bad magic prefix."),
		unknownSessions:   r.Counter("tsserve_unknown_sessions_total", "Session-scoped requests against an unknown or reaped session id."),
		unknownNamespaces: r.Counter("tsserve_unknown_namespaces_total", "Namespace-scoped requests against an unprovisioned or deprovisioned namespace."),

		lat: make(map[string]*obs.Histogram, len(latencyEndpoints)),
	}
	for _, ep := range latencyEndpoints {
		m.lat[ep] = r.Histogram("tsserve_"+ep+"_latency_ns",
			"Server-side latency of the "+ep+" endpoint, nanoseconds.", nil)
	}

	// Derived series: sampled from the SDK objects and the session table
	// at scrape time. The objects' counters are the bookkeeping; these
	// closures only read them.
	r.GaugeFunc("tsserve_wire_sessions", "Live wire leases, HTTP and binary, all namespaces.",
		func() float64 { wire, _ := s.sessionCounts(); return float64(wire) })
	r.GaugeFunc("tsserve_binary_sessions", "Live wire leases attached over the binary transport, all namespaces.",
		func() float64 { _, bin := s.sessionCounts(); return float64(bin) })
	r.GaugeFunc("tsserve_uptime_seconds", "Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })

	// Per-namespace series, one sample per live namespace ("default"
	// included) labeled namespace="...". Sampled over the namespace
	// table at scrape time, so a PUT /ns/{name} shows up on the very
	// next scrape with no re-registration.
	r.GaugeVecFunc("tsserve_ns_sessions", "Live wire leases per namespace.", "namespace",
		func() []obs.Sample {
			return s.sampleNamespaces(func(ns *namespace) (float64, bool) { return float64(ns.active.Load()), true })
		})
	r.CounterVecFunc("tsserve_ns_calls_total", "Timestamps issued per namespace.", "namespace",
		func() []obs.Sample {
			return s.sampleNamespaces(func(ns *namespace) (float64, bool) { return float64(ns.obj.Stats().Calls), true })
		})
	r.CounterVecFunc("tsserve_ns_attaches_total", "Sessions handed out per namespace, wire and in-process.", "namespace",
		func() []obs.Sample {
			return s.sampleNamespaces(func(ns *namespace) (float64, bool) { return float64(ns.obj.Stats().Attaches), true })
		})
	r.CounterVecFunc("tsserve_ns_reaped_total", "Idle wire sessions detached by the TTL reaper, per namespace.", "namespace",
		func() []obs.Sample {
			return s.sampleNamespaces(func(ns *namespace) (float64, bool) { return float64(ns.reaped.Load()), true })
		})
	r.CounterVecFunc("tsserve_ns_quota_rejections_total", "Attaches rejected by the per-namespace session quota.", "namespace",
		func() []obs.Sample {
			return s.sampleNamespaces(func(ns *namespace) (float64, bool) { return float64(ns.quotaRejections.Load()), true })
		})

	// Register-space metering, the paper's live space measure, labeled by
	// namespace. Every provisioned namespace meters. The budget is always
	// known; the used/read/write samples skip only a default Object built
	// without metering (they would read as constant zero and invite bogus
	// dashboards).
	r.GaugeVecFunc("tsspace_registers_total", "Allocated registers (the space budget), per namespace.", "namespace",
		func() []obs.Sample {
			return s.sampleNamespaces(func(ns *namespace) (float64, bool) {
				sp, _ := ns.obj.Space()
				return float64(sp.Registers), true
			})
		})
	r.GaugeVecFunc("tsspace_registers_used", "Distinct registers written — the paper's used-register count — per metered namespace.", "namespace",
		func() []obs.Sample {
			return s.sampleNamespaces(func(ns *namespace) (float64, bool) {
				sp, metered := ns.obj.Space()
				return float64(sp.Written), metered
			})
		})
	r.CounterVecFunc("tsspace_register_reads_total", "Register read operations per metered namespace.", "namespace",
		func() []obs.Sample {
			return s.sampleNamespaces(func(ns *namespace) (float64, bool) {
				sp, metered := ns.obj.Space()
				return float64(sp.Reads), metered
			})
		})
	r.CounterVecFunc("tsspace_register_writes_total", "Register write operations per metered namespace.", "namespace",
		func() []obs.Sample {
			return s.sampleNamespaces(func(ns *namespace) (float64, bool) {
				sp, metered := ns.obj.Space()
				return float64(sp.Writes), metered
			})
		})
	return m
}

// sampleNamespaces renders one labeled sample per live namespace in name
// order (namespaceList's canonical order, so repeated scrapes diff
// cleanly). sample returns (value, include); a
// false include drops the namespace from this family — how the metered-
// only register series skip an unmetered default Object.
func (s *Server) sampleNamespaces(sample func(*namespace) (float64, bool)) []obs.Sample {
	nss := s.namespaceList()
	out := make([]obs.Sample, 0, len(nss))
	for _, ns := range nss {
		if v, ok := sample(ns); ok {
			out = append(out, obs.Sample{Label: ns.name, Value: v})
		}
	}
	return out
}

// sessionCounts sizes the wire session table: total live leases and the
// binary-attached subset. Scrape-path only.
func (s *Server) sessionCounts() (wire, binary int) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for _, ws := range s.sessions {
		wire++
		if ws.owner != nil {
			binary++
		}
	}
	return wire, binary
}

// MetricsSnapshot assembles the JSON /metrics body from the same
// registry handles and SDK counters the Prometheus exposition samples —
// the two endpoints are two renderings of one set of books.
func (s *Server) MetricsSnapshot() Metrics {
	wire, binSessions := s.sessionCounts()
	m := Metrics{
		Batches:           s.met.batches.Value(),
		WireSessions:      wire,
		BinarySessions:    binSessions,
		ReapedSessions:    s.met.reaped.Value(),
		CrashReclaimed:    s.met.crashReclaimed.Value(),
		BinaryFrames:      s.met.binFrames.Value(),
		BinaryBytesIn:     s.met.binBytesIn.Value(),
		BinaryBytesOut:    s.met.binBytesOut.Value(),
		OversizedFrames:   s.met.oversizedFrames.Value(),
		BadMagicConns:     s.met.badMagicConns.Value(),
		UnknownSessions:   s.met.unknownSessions.Value(),
		UnknownNamespaces: s.met.unknownNamespaces.Value(),
		UptimeSeconds:     time.Since(s.start).Seconds(),
	}
	// Per-namespace section, same sources and order as the Prometheus
	// tsserve_ns_* / tsspace_registers* vec families — the two /metrics
	// views stay two renderings of one set of books.
	for _, ns := range s.namespaceList() {
		nst := ns.obj.Stats()
		nm := NamespaceMetrics{
			Name:            ns.name,
			Algorithm:       ns.obj.Algorithm(),
			Procs:           ns.obj.Procs(),
			OneShot:         ns.obj.OneShot(),
			MaxSessions:     ns.maxSessions,
			Calls:           nst.Calls,
			Attaches:        nst.Attaches,
			WireSessions:    ns.active.Load(),
			ReapedSessions:  ns.reaped.Load(),
			QuotaRejections: ns.quotaRejections.Load(),
		}
		if sp, metered := ns.obj.Space(); metered {
			nm.Space = &sp
		}
		if ns.name == DefaultNamespace {
			m.Space = nm.Space
		}
		m.Namespaces = append(m.Namespaces, nm)
	}
	m.Latency = make(map[string]Latency, len(s.met.lat))
	for endpoint, h := range s.met.lat {
		if h.Count() == 0 {
			continue
		}
		d := h.Summarize()
		m.Latency[endpoint] = Latency{
			Count: d.Count, MeanNs: d.Mean,
			P50Ns: d.P50, P90Ns: d.P90, P99Ns: d.P99, P999Ns: d.P999, MaxNs: d.Max,
		}
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// handlePrometheus is GET /metrics/prometheus: the registry rendered in
// the Prometheus text exposition format.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.TextContentType)
	_ = s.met.reg.WritePrometheus(w)
}

// EventsHandler returns the flight-recorder dump handler (GET
// /debug/events on the daemon's debug listener, also mountable by
// embedders): the most recent events as JSON lines, oldest first. Each
// line carries the event's sequence number, monotonic nanosecond
// timestamp, kind, 16-hex-digit session id (empty when the event has
// none), pid (-1 when none) and kind-specific detail.
func (s *Server) EventsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		events := make([]obs.Event, s.met.ring.Cap())
		n := s.met.ring.Snapshot(events)
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, e := range events[:n] {
			sess := ""
			if e.Session != 0 {
				sess = fmt.Sprintf("%016x", e.Session)
			}
			line := marshalEvent(e, sess)
			_, _ = w.Write(append(line, '\n'))
		}
	})
}

// marshalEvent renders one flight-recorder event as a JSON object. The
// fields are assembled by hand so kinds render as their names and the
// session id as the wire-format hex string.
func marshalEvent(e obs.Event, sess string) []byte {
	b := make([]byte, 0, 128)
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t_ns":`...)
	b = strconv.AppendInt(b, e.TimeNs, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","session":"`...)
	b = append(b, sess...)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(e.Pid), 10)
	b = append(b, `,"ns":`...)
	b = strconv.AppendUint(b, uint64(e.NS), 10)
	b = append(b, `,"detail":`...)
	b = strconv.AppendInt(b, e.Detail, 10)
	b = append(b, '}')
	return b
}
