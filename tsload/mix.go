package tsload

import (
	"fmt"
	"sort"
	"strings"
)

// Mix shapes the operation stream of a run, mirroring the scenario
// vocabulary of internal/engine at the session level: what the engine
// expresses as goroutine structure over (pid, seq) pairs, a mix expresses
// as session lifecycles and op kinds over the public surfaces.
type Mix struct {
	// Name is the registry key ("steady", "churn", ...) and the scenario
	// part of the BENCH_<name>.json file name.
	Name string
	// Summary is one line for flag help and reports.
	Summary string
	// AttachEvery is the number of getTS operations a worker performs per
	// session lease before detaching and re-attaching (one GetTSBatch is
	// one operation, whatever its Batch size); 0 keeps one session for the
	// whole run (the long-lived steady state). Against one-shot targets
	// the driver forces 1 — a one-shot paper-process has exactly one
	// timestamp to give.
	AttachEvery int
	// BurstSize > 1 groups operations into bursts: open-loop arrivals come
	// BurstSize at a time at the same intended instant (rate preserved on
	// average); closed-loop workers pause for BurstGap between bursts.
	BurstSize int
	// Batch is the number of timestamps per getTS operation: values > 1
	// make each getTS op one SessionAPI.GetTSBatch of that size, pricing
	// batch amortization on both sides of the wire. 0 and 1 mean the
	// single-call GetTS. Against one-shot targets the driver forces 1 (a
	// one-shot paper-process has exactly one timestamp to give).
	Batch int
	// Namespaces > 0 makes the run multi-tenant: the driver provisions
	// that many namespaces ("load-0" ...) on the target before traffic
	// and routes every new lease to one of them, so hot namespaces and
	// cold ones share the daemon and interfere the way tenants do. The
	// target must implement NamespaceProvisioner (ErrBadConfig
	// otherwise); namespaces are deprovisioned when the run ends.
	Namespaces int
	// ZipfS skews namespace popularity: values > 1 draw each lease's
	// namespace from a Zipf(s=ZipfS) distribution over the namespace
	// indices — namespace 0 is the hot tenant, the tail stays cold.
	// Values <= 1 route uniformly.
	ZipfS float64
	// NSQuota caps concurrently held leases per provisioned namespace
	// (NamespaceSpec.MaxSessions; 0 = unlimited). Attaches beyond the
	// cap fail with tsserve.ErrQuota — an expected error when set, the
	// same way the crash mix expects ErrDetached: the storm mix uses it
	// to price typed quota rejection under an attach flood.
	NSQuota int
	// AbandonFrac is the probability that a worker ends a lease by
	// crashing instead of detaching: the session is dropped without
	// Detach, leaving its pid leased until the daemon's idle-TTL reaper
	// reclaims it. It models client death, so it needs a wire target:
	// the in-process SDK reaps nothing (Run rejects the pairing with
	// ErrBadConfig), and against a daemon whose TTL outlasts the run the
	// abandoned pids leak until every Attach wedges — the failure mode the
	// TTL exists for. ErrDetached on a later op of such a run is an
	// expected error (the reaper won a race), counted separately from
	// unexpected ones.
	AbandonFrac float64
}

// Kind renders the mix parameters the way engine workloads render theirs.
func (m Mix) Kind() string {
	var parts []string
	switch m.AttachEvery {
	case 0:
		parts = append(parts, "long-lived")
	case 1:
		parts = append(parts, "churn")
	default:
		parts = append(parts, fmt.Sprintf("reattach-every-%d", m.AttachEvery))
	}
	if m.BurstSize > 1 {
		parts = append(parts, fmt.Sprintf("burst=%d", m.BurstSize))
	}
	if m.Batch > 1 {
		parts = append(parts, fmt.Sprintf("batch=%d", m.Batch))
	}
	if m.AbandonFrac > 0 {
		parts = append(parts, fmt.Sprintf("abandon=%.0f%%", m.AbandonFrac*100))
	}
	if m.Namespaces > 0 {
		parts = append(parts, fmt.Sprintf("ns=%d", m.Namespaces))
		if m.ZipfS > 1 {
			parts = append(parts, fmt.Sprintf("zipf=%.1f", m.ZipfS))
		}
		if m.NSQuota > 0 {
			parts = append(parts, fmt.Sprintf("nsquota=%d", m.NSQuota))
		}
	}
	return strings.Join(parts, "/")
}

// WithBatch returns a copy of the mix whose getTS ops issue batches of
// size batch (see Batch). It is the sweep knob of cmd/tsload's -batch.
func (m Mix) WithBatch(batch int) Mix {
	m.Batch = batch
	return m
}

// builtinMixes is the scenario catalog: the six mixes every cmd/tsload
// run sweeps. Order is presentation order.
var builtinMixes = []Mix{
	{
		Name:        "steady",
		Summary:     "long-lived steady state: every worker holds one session and issues timestamps back to back",
		AttachEvery: 0,
	},
	{
		Name:        "churn",
		Summary:     "one-shot churn: attach, take one timestamp, detach — the session layer under maximal lease recycling",
		AttachEvery: 1,
	},
	{
		Name:        "burst",
		Summary:     "phased bursts: operations arrive in groups with idle gaps, the engine's Phased shape as traffic",
		AttachEvery: 0,
		BurstSize:   16,
	},
	{
		Name:        "crash",
		Summary:     "crash-recovery churn: workers abandon half their leases without Detach; the daemon's TTL reaper must keep the namespace circulating",
		AttachEvery: 4,
		AbandonFrac: 0.5,
	},
	{
		Name:        "tenants",
		Summary:     "multi-tenant interference: 8 provisioned namespaces, Zipf-skewed popularity — one hot tenant, a cold tail, one daemon",
		AttachEvery: 4,
		Namespaces:  8,
		ZipfS:       1.5,
	},
	{
		Name:        "storm",
		Summary:     "flash-crowd attach storm: bursts of single-op leases flood one namespace with a 2-session quota; quota rejections are the expected errors",
		AttachEvery: 1,
		BurstSize:   16,
		Namespaces:  1,
		NSQuota:     2,
	},
}

// Mixes returns the built-in mix catalog, sorted by name.
func Mixes() []Mix {
	out := append([]Mix(nil), builtinMixes...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MixNames returns the sorted names of the built-in mixes.
func MixNames() []string {
	mixes := Mixes()
	names := make([]string, len(mixes))
	for i, m := range mixes {
		names[i] = m.Name
	}
	return names
}

// LookupMix resolves a built-in mix by name.
func LookupMix(name string) (Mix, bool) {
	for _, m := range builtinMixes {
		if m.Name == name {
			return m, true
		}
	}
	return Mix{}, false
}
