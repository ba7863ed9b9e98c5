package tsload

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"tsspace"
	"tsspace/tsserve"
)

// Target is a timestamp object under load: the driver speaks this
// interface only, so the same workload mix runs against the in-process SDK
// and against a tsserved daemon over HTTP, and the difference between the
// two BENCH rows is exactly the wire. Attach hands back the repository's
// one session surface — tsspace.SessionAPI — so the driver's operation
// code is identical on every backend, batches included.
type Target interface {
	// Kind names the backend in reports: "inproc", "http" or "binary".
	Kind() string
	// Algorithm is the registry name of the implementation under load.
	Algorithm() string
	// Procs is the object's paper-process count n (for one-shot targets,
	// also the total getTS budget).
	Procs() int
	// OneShot reports whether the object issues at most one timestamp per
	// process — the driver re-leases after every getTS and treats budget
	// exhaustion as the natural end of the run.
	OneShot() bool
	// Attach leases one session. Sessions are one logical client each —
	// their operation streams must be sequential; each driver worker holds
	// its own.
	Attach(ctx context.Context) (tsspace.SessionAPI, error)
	// Space reports the object's register-space footprint, when the
	// backend exposes one (in-process metering, or the /metrics space
	// section over HTTP).
	Space(ctx context.Context) (SpaceReport, bool)
	// Close releases whatever the target owns.
	Close() error
}

// SpaceReport is the register-space footprint of a target, as recorded in
// BENCH_*.json (cf. the paper's Θ(√n) one-shot vs Θ(n) long-lived bounds).
type SpaceReport struct {
	Registers int    `json:"registers"`
	Written   int    `json:"written"`
	Reads     uint64 `json:"reads"`
	Writes    uint64 `json:"writes"`
}

// IsExhausted reports whether err is the one-shot budget running out, on
// either side of the wire: the SDK's typed errors directly, or a tsserve
// APIError carrying the exhausted code.
func IsExhausted(err error) bool {
	return errors.Is(err, tsspace.ErrExhausted) || errors.Is(err, tsspace.ErrOneShot)
}

// InProc is the in-process backend: the driver calls the tsspace SDK
// directly, with no serialization or scheduling between it and the
// registers. The SDK is a bare pid pool — it neither reaps abandoned
// leases nor namespaces or rations them — so the mixes that need a lease
// manager (crash, tenants, storm) run against the wire targets only, and
// Run rejects them here with ErrBadConfig.
type InProc struct {
	obj *tsspace.Object
}

// NewInProc wraps an SDK object as a load target. The target takes
// ownership: Close closes the object.
func NewInProc(obj *tsspace.Object) *InProc { return &InProc{obj: obj} }

// Kind returns "inproc".
func (t *InProc) Kind() string { return "inproc" }

// Algorithm returns the object's registry name.
func (t *InProc) Algorithm() string { return t.obj.Algorithm() }

// Procs returns the object's paper-process count.
func (t *InProc) Procs() int { return t.obj.Procs() }

// OneShot reports the object's one-shot flag.
func (t *InProc) OneShot() bool { return t.obj.OneShot() }

// Attach leases an SDK session: tsspace.Session is the local SessionAPI.
func (t *InProc) Attach(ctx context.Context) (tsspace.SessionAPI, error) {
	s, err := t.obj.Attach(ctx)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Space reports the object's metered usage, when metering is on.
func (t *InProc) Space(context.Context) (SpaceReport, bool) {
	u, metered := t.obj.Usage()
	if !metered {
		return SpaceReport{}, false
	}
	return SpaceReport{Registers: u.Registers, Written: u.Written, Reads: u.Reads, Writes: u.Writes}, true
}

// Close closes the owned object.
func (t *InProc) Close() error { return t.obj.Close() }

// HTTP is the wire backend: Attach leases a wire-v2 session on a tsserved
// daemon (POST /session), getTS batches pipeline on that lease, and
// Detach releases it — the SDK's lease/churn semantics priced with the
// full HTTP/JSON round trip per batch.
type HTTP struct {
	client *tsserve.Client
	health tsserve.Health
}

// NewHTTP probes the daemon at baseURL and wraps it as a wire-v2 load
// target. hc may be nil for tsserve's shared keep-alive client; for
// unusual worker counts pass a client whose transport allows enough idle
// connections per host.
func NewHTTP(ctx context.Context, baseURL string, hc *http.Client) (*HTTP, error) {
	c := tsserve.NewClient(baseURL, hc)
	h, err := c.Health(ctx)
	if err != nil {
		return nil, fmt.Errorf("tsload: probing %s: %w", baseURL, err)
	}
	if h.Status != "ok" {
		return nil, fmt.Errorf("%w: %s reports status %q", ErrUnhealthy, baseURL, h.Status)
	}
	return &HTTP{client: c, health: h}, nil
}

// Kind returns "http".
func (t *HTTP) Kind() string { return "http" }

// Algorithm returns the daemon's algorithm, as reported by /healthz.
func (t *HTTP) Algorithm() string { return t.health.Algorithm }

// Procs returns the daemon object's paper-process count.
func (t *HTTP) Procs() int { return t.health.Procs }

// OneShot reports the daemon object's one-shot flag.
func (t *HTTP) OneShot() bool { return t.health.OneShot }

// Attach leases a wire-v2 RemoteSession.
func (t *HTTP) Attach(ctx context.Context) (tsspace.SessionAPI, error) {
	s, err := t.client.Attach(ctx)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Space reads the /metrics space section, when the daemon is metered.
func (t *HTTP) Space(ctx context.Context) (SpaceReport, bool) {
	m, err := t.client.Metrics(ctx)
	if err != nil || m.Space == nil {
		return SpaceReport{}, false
	}
	return SpaceReport{
		Registers: m.Space.Registers, Written: m.Space.Written,
		Reads: m.Space.Reads, Writes: m.Space.Writes,
	}, true
}

// Close is a no-op: the daemon belongs to whoever started it.
func (t *HTTP) Close() error { return nil }
