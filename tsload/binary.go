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
// report, namespace provisioning) stays on its HTTP endpoints. A BENCH
// row with target "binary" prices the same session semantics as "http"
// with the HTTP/JSON harness tax removed — the difference between the
// two rows is exactly the encoding and connection model.
type Binary struct {
	daemon
	bin *tsserve.BinaryClient
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
	d, err := probeDaemon(ctx, baseURL, hc)
	if err != nil {
		return nil, err
	}
	t := &Binary{daemon: d, bin: tsserve.NewBinaryClient(binAddr)}
	s, err := t.Attach(ctx)
	if err == nil {
		err = s.Detach()
	}
	if err != nil && !IsExhausted(err) {
		t.bin.Close()
		return nil, fmt.Errorf("tsload: probing binary listener %s: %w", binAddr, err)
	}
	return t, nil
}

// Kind returns "binary".
func (t *Binary) Kind() string { return "binary" }

// Attach leases a wire-v3 session in the default namespace, bound to its
// own pooled connection.
func (t *Binary) Attach(ctx context.Context) (tsspace.SessionAPI, error) {
	return t.AttachNamespace(ctx, tsserve.DefaultNamespace)
}

// AttachNamespace leases a wire-v3 session via the attach_ns frame: the
// data plane stays binary, namespace routing included.
func (t *Binary) AttachNamespace(ctx context.Context, name string) (tsspace.SessionAPI, error) {
	s, err := t.bin.AttachNamespace(ctx, name)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Close closes the binary client's pooled connections; the daemon belongs
// to whoever started it.
func (t *Binary) Close() error { return t.bin.Close() }
