package tsload

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"tsspace"
	"tsspace/tsserve"
)

// Binary is the wire-v3 backend: the data plane (attach, pipelined getTS
// batches, detach) runs over the daemon's persistent-connection
// binary listener, while the control plane (health probe, /metrics space
// report) stays on its HTTP endpoints. A BENCH row with target "binary"
// prices the same session semantics as "http" with the HTTP/JSON harness
// tax removed — the difference between the two rows is exactly the
// encoding and connection model.
type Binary struct {
	bin    *tsserve.BinaryClient
	client *tsserve.Client
	health tsserve.Health
}

// ErrUnhealthy is wrapped when a probed daemon answers the health
// check with a status other than "ok".
var ErrUnhealthy = errors.New("tsload: daemon not healthy")

// NewBinary probes the daemon at baseURL over HTTP, then wraps its binary
// listener at binAddr (e.g. "127.0.0.1:8038") as a load target. hc may be
// nil for tsserve's shared keep-alive client. The probe also attaches and
// detaches one session over binAddr — the frames the run itself sends —
// so a wrong binAddr fails here, not mid-run. A spent one-shot daemon
// answers that attach with the typed exhaustion error, which proves the
// listener as well as a lease would.
func NewBinary(ctx context.Context, baseURL, binAddr string, hc *http.Client) (*Binary, error) {
	c := tsserve.NewClient(baseURL, hc)
	h, err := c.Health(ctx)
	if err != nil {
		return nil, fmt.Errorf("tsload: probing %s: %w", baseURL, err)
	}
	if h.Status != "ok" {
		return nil, fmt.Errorf("%w: %s reports status %q", ErrUnhealthy, baseURL, h.Status)
	}
	bin := tsserve.NewBinaryClient(binAddr)
	s, err := bin.Attach(ctx)
	if err == nil {
		err = s.Detach()
	}
	if err != nil && !IsExhausted(err) {
		bin.Close()
		return nil, fmt.Errorf("tsload: probing binary listener %s: %w", binAddr, err)
	}
	return &Binary{bin: bin, client: c, health: h}, nil
}

// Kind returns "binary".
func (t *Binary) Kind() string { return "binary" }

// Algorithm returns the daemon's algorithm, as reported by /healthz.
func (t *Binary) Algorithm() string { return t.health.Algorithm }

// Procs returns the daemon object's paper-process count.
func (t *Binary) Procs() int { return t.health.Procs }

// OneShot reports the daemon object's one-shot flag.
func (t *Binary) OneShot() bool { return t.health.OneShot }

// Attach leases a wire-v3 session bound to its own pooled connection.
func (t *Binary) Attach(ctx context.Context) (tsspace.SessionAPI, error) {
	s, err := t.bin.Attach(ctx)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Space reads the /metrics space section over HTTP, when the daemon is
// metered.
func (t *Binary) Space(ctx context.Context) (SpaceReport, bool) {
	m, err := t.client.Metrics(ctx)
	if err != nil || m.Space == nil {
		return SpaceReport{}, false
	}
	return SpaceReport{
		Registers: m.Space.Registers, Written: m.Space.Written,
		Reads: m.Space.Reads, Writes: m.Space.Writes,
	}, true
}

// Close closes the binary client's pooled connections; the daemon belongs
// to whoever started it.
func (t *Binary) Close() error { return t.bin.Close() }
