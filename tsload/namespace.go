package tsload

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tsspace"
	"tsspace/tsserve"
)

// NamespaceSpec parameterizes one provisioned namespace of a
// multi-tenant run: the broker-side Object configuration the driver
// asks each target to create before traffic starts.
type NamespaceSpec struct {
	// Algorithm names the registry implementation; empty inherits the
	// target's own.
	Algorithm string
	// Procs is the namespace Object's paper-process count; values < 1
	// inherit the target's own.
	Procs int
	// MaxSessions caps concurrently held leases in the namespace
	// (0 = unlimited). An attach beyond the cap fails with
	// tsserve.ErrQuota — the typed rejection the storm mix provokes on
	// purpose.
	MaxSessions int
}

// NamespaceProvisioner is the optional target surface behind
// multi-namespace mixes (Mix.Namespaces > 0): provision named Objects,
// bind sessions into them, tear them down. The HTTP and binary targets
// implement it by driving a tsserved daemon's broker endpoints, so a
// tenants BENCH row prices the namespace routing and quota the daemon
// serves in production. The in-process target does not: the daemon's
// broker is the one place leases are namespaced and rationed, and
// targets without the surface reject namespace mixes at Run with
// ErrBadConfig.
type NamespaceProvisioner interface {
	// ProvisionNamespace creates the named namespace. Re-provisioning
	// the same spec is idempotent.
	ProvisionNamespace(ctx context.Context, name string, spec NamespaceSpec) error
	// AttachNamespace leases one session bound into the named
	// namespace. A namespace at its MaxSessions quota fails with an
	// error matching tsserve.ErrQuota.
	AttachNamespace(ctx context.Context, name string) (tsspace.SessionAPI, error)
	// DeprovisionNamespace drops the namespace, force-detaching its
	// live leases.
	DeprovisionNamespace(ctx context.Context, name string) error
}

// ProvisionNamespace PUTs the namespace on the daemon's broker surface.
func (t *HTTP) ProvisionNamespace(ctx context.Context, name string, spec NamespaceSpec) error {
	_, err := t.client.ProvisionNamespace(ctx, name, tsserve.ProvisionRequest{
		Algorithm: spec.Algorithm, Procs: spec.Procs, MaxSessions: spec.MaxSessions,
	})
	return err
}

// AttachNamespace leases a wire-v2 session through the namespace-scoped
// routes (/ns/{name}/session...).
func (t *HTTP) AttachNamespace(ctx context.Context, name string) (tsspace.SessionAPI, error) {
	s, err := t.client.Namespace(name).Attach(ctx)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// DeprovisionNamespace DELETEs the namespace on the broker surface.
func (t *HTTP) DeprovisionNamespace(ctx context.Context, name string) error {
	_, err := t.client.DeprovisionNamespace(ctx, name)
	return err
}

// ProvisionNamespace provisions over the daemon's HTTP broker surface —
// the control plane, like the health probe and the space report.
func (t *Binary) ProvisionNamespace(ctx context.Context, name string, spec NamespaceSpec) error {
	_, err := t.client.ProvisionNamespace(ctx, name, tsserve.ProvisionRequest{
		Algorithm: spec.Algorithm, Procs: spec.Procs, MaxSessions: spec.MaxSessions,
	})
	return err
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

// DeprovisionNamespace DELETEs the namespace over HTTP.
func (t *Binary) DeprovisionNamespace(ctx context.Context, name string) error {
	_, err := t.client.DeprovisionNamespace(ctx, name)
	return err
}

// nsPlan is a run's namespace routing state: the provisioned names and
// the per-namespace measured-op counters behind Result.NamespaceOps.
type nsPlan struct {
	prov  NamespaceProvisioner
	names []string
	ops   []atomic.Uint64
}

// provisionNamespaces sets up the mix's namespaces ("load-0" ...) on the
// target, inheriting the target's algorithm and procs and applying the
// mix's NSQuota. Returns ErrBadConfig when the target cannot provision.
func provisionNamespaces(ctx context.Context, cfg Config) (*nsPlan, error) {
	prov, ok := cfg.Target.(NamespaceProvisioner)
	if !ok {
		return nil, fmt.Errorf("%w: mix %q needs %d namespaces but target %q cannot provision them",
			ErrBadConfig, cfg.Mix.Name, cfg.Mix.Namespaces, cfg.Target.Kind())
	}
	p := &nsPlan{
		prov:  prov,
		names: make([]string, cfg.Mix.Namespaces),
		ops:   make([]atomic.Uint64, cfg.Mix.Namespaces),
	}
	spec := NamespaceSpec{Algorithm: cfg.Target.Algorithm(), Procs: cfg.Target.Procs(), MaxSessions: cfg.Mix.NSQuota}
	for i := range p.names {
		p.names[i] = fmt.Sprintf("load-%d", i)
		if err := provisionFresh(ctx, prov, p.names[i], spec); err != nil {
			p.teardown()
			return nil, err
		}
	}
	return p, nil
}

// provisionFresh provisions name from a clean slate: a leftover from an
// earlier aborted run against the same daemon is deprovisioned first, so
// every run's per-namespace counters start at zero.
func provisionFresh(ctx context.Context, prov NamespaceProvisioner, name string, spec NamespaceSpec) error {
	if err := prov.DeprovisionNamespace(ctx, name); err != nil && !errors.Is(err, tsserve.ErrUnknownNamespace) {
		return err
	}
	return prov.ProvisionNamespace(ctx, name, spec)
}

// teardown deprovisions the plan's namespaces on a fresh short-lived
// context: the run's own ctx may already be cancelled when cleanup runs.
func (p *nsPlan) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, name := range p.names {
		if name != "" {
			_ = p.prov.DeprovisionNamespace(ctx, name)
		}
	}
}
