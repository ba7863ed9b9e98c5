// Package tsspace is the public SDK of the reproduction: the paper's
// unbounded timestamp object (§2) behind a session-based, context-aware
// API.
//
// The paper's object has two operations — getTS() and compare(t1, t2) —
// with one correctness requirement, the happens-before property: if a
// getTS() instance returning t1 completes before another returning t2 is
// invoked, then Less(t1, t2) is true and Less(t2, t1) is false. Only
// getTS touches shared memory; compare is the local function Less.
// The internal harnesses expose the *implementation* contract
// (Algorithm.GetTS(mem, pid, seq)), which forces every caller to
// hand-thread shared memory, process identifiers and per-process sequence
// numbers. This package owns that plumbing:
//
//	obj, err := tsspace.New(tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(64))
//	s, err := obj.Attach(ctx)       // lease one of the 64 paper-processes
//	ts, err := s.GetTS(ctx)         // seq tracking, memory, discipline: handled
//	n, err := s.GetTSBatch(ctx, buf) // k back-to-back timestamps, zero allocs
//	before := tsspace.Less(t1, t2)
//	s.Detach()                      // the pid is recycled to the next session
//
// Session is the local implementation of SessionAPI, the one session
// surface shared with tsserve.RemoteSession (the same semantics over the
// wire) and with the tsload drivers — write against the interface and the
// transport becomes a deployment decision. The session hot path is
// lock-free and is one loop, GetTSBatch (GetTS is a batch of one): while
// a pid is leased its sequence count lives in the Session, which a batch
// updates once, at its end, and the pid's cache-line-padded process
// record holds it only between leases, so GetTS and GetTSBatch touch no
// object-wide mutex.
//
// An Object is configured for a fixed number of paper-processes n, but
// serves arbitrarily many logical clients: Attach leases a free process
// id, Detach returns it, and per-process sequence numbers persist across
// leases, so a long-lived object stays correct under unbounded session
// churn (the paper's Θ(n) long-lived space bound is about the process
// *namespace*, not the live set). A process's record — its memory stack
// and sequence count — is built on its first lease, so New takes the same
// dozen or so allocations whatever n is, and an object whose leases touch
// k pids pays for k records. One-shot objects (sqrt, simple) issue at
// most one timestamp per process id; once all n are spent, Attach reports
// ErrExhausted — that budget is the paper's M, not an implementation
// limit.
//
// Algorithms are resolved by name through the registry in
// internal/timestamp; this package blank-imports the full catalog, so
// every implementation in the repository is available via WithAlgorithm.
package tsspace

import (
	"errors"
	"fmt"

	"tsspace/internal/register"
	"tsspace/internal/timestamp"
	_ "tsspace/internal/timestamp/all" // the SDK ships the full algorithm catalog
)

// Timestamp is an element of the timestamp universe T = ℕ × (ℕ ∪ {0}):
// a (Rnd, Turn) pair. Scalar-valued algorithms embed integers as (v, 0).
// Timestamps are opaque tokens to SDK callers: the only meaningful
// operation on them is the order Less.
type Timestamp = timestamp.Timestamp

// Less is compare(t1, t2) for every object of the catalog: the
// lexicographic order on T (Algorithm 3). Compare reads no register, so
// it needs no object, no session and no round trip, and Less orders
// timestamps from any transport.
func Less(t1, t2 Timestamp) bool { return timestamp.Less(t1, t2) }

// Typed errors of the SDK surface. Errors returned by Object and Session
// methods match these with errors.Is.
var (
	// ErrUnknownAlgorithm is returned by New when WithAlgorithm names no
	// registered implementation.
	ErrUnknownAlgorithm = errors.New("tsspace: unknown algorithm")
	// ErrBadOption is wrapped by every option- and configuration-
	// validation failure out of New.
	ErrBadOption = errors.New("tsspace: invalid configuration")
	// ErrClosed is returned once the object has been closed.
	ErrClosed = errors.New("tsspace: object closed")
	// ErrDetached is returned by calls on a detached session.
	ErrDetached = errors.New("tsspace: session detached")
	// ErrExhausted is returned by Attach on a one-shot object whose n
	// process slots have all issued their timestamp.
	ErrExhausted = errors.New("tsspace: one-shot object exhausted")
	// ErrOneShot is returned by GetTS when a session of a one-shot object
	// asks for a second timestamp. It aliases the algorithm-level sentinel
	// so errors.Is works across layers.
	ErrOneShot = timestamp.ErrOneShot
)

// AlgorithmInfo describes one catalog entry for discovery surfaces (flag
// help, service health endpoints, the broker's GET /catalog).
type AlgorithmInfo struct {
	Name    string // as accepted by WithAlgorithm
	Summary string // one line
	// OneShot marks algorithms whose sessions issue exactly one
	// timestamp (the paper's Θ(√n)-space regime); long-lived algorithms
	// leave it false.
	OneShot bool
	// MinProcs is the smallest proc count the implementation supports
	// (always ≥ 1).
	MinProcs int
}

// Algorithms returns the names of the registered (correct) algorithm
// implementations, sorted.
func Algorithms() []string { return timestamp.Names() }

// Catalog returns name, one-line summary, one-shot-ness and minimum
// proc count for every registered (correct) implementation, sorted by
// name.
func Catalog() []AlgorithmInfo {
	all := timestamp.All()
	out := make([]AlgorithmInfo, len(all))
	for i, info := range all {
		out[i] = AlgorithmInfo{Name: info.Name, Summary: info.Summary, OneShot: info.OneShot, MinProcs: info.MinProcs}
	}
	return out
}

// config collects the New options.
type config struct {
	alg     string
	procs   int
	metered bool
}

// Option configures New.
type Option func(*config) error

// WithAlgorithm selects the implementation by registry name (see
// Algorithms). The default is "collect", the simplest correct long-lived
// object. Mutant names resolve too — they exist for harness replay and
// must never back real work.
func WithAlgorithm(name string) Option {
	return func(c *config) error {
		if name == "" {
			return fmt.Errorf("%w: WithAlgorithm with empty name", ErrBadOption)
		}
		c.alg = name
		return nil
	}
}

// WithProcs sets the number of paper-processes n: the concurrency level of
// the object and, for one-shot algorithms, the total timestamp budget. The
// default is 16.
func WithProcs(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: WithProcs(%d): need at least one process", ErrBadOption, n)
		}
		c.procs = n
		return nil
	}
}

// WithMetering records the register-space footprint of the object (see
// Usage and SpaceTotals). Each process's stack counts its own register
// operations with atomic adds on a cache line no other process writes,
// and a write also loads one word of a shared written-register bitmap.
// No register operation takes a lock. A collect (collect, dense) is one
// call that the meter counts as its n reads with a single add, so a
// metered collect getTS pays at most two adds whatever n is; the
// algorithms that read register by register (sqrt, simple) pay one add per
// register operation, and fas touches no register.
func WithMetering() Option {
	return func(c *config) error {
		c.metered = true
		return nil
	}
}

// New constructs a timestamp object. With no options it is a long-lived
// "collect" object for 16 processes, unmetered. New builds no per-process
// state, so its allocation count does not grow with n: each pid's memory
// stack is built by its first Attach.
func New(opts ...Option) (*Object, error) {
	cfg := config{alg: "collect", procs: 16}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	info, ok := timestamp.Lookup(cfg.alg)
	if !ok {
		return nil, fmt.Errorf("%w: %w %q (have %v)", ErrBadOption, ErrUnknownAlgorithm, cfg.alg, timestamp.Names())
	}
	if cfg.procs < info.MinProcs {
		return nil, fmt.Errorf("%w: algorithm %q needs at least %d processes, got %d",
			ErrBadOption, info.Name, info.MinProcs, cfg.procs)
	}
	alg := info.New(cfg.procs)

	// Scalar-valued algorithms (collect, dense, simple) run on the
	// boxing-free int64 array, so a getTS allocates nothing; everything
	// else gets the boxed-value array.
	base := timestamp.NewMem(alg)
	var meter *register.Meter
	var metered register.Middleware
	if cfg.metered {
		meter = register.NewMeterSize(base.Size())
		metered = register.Metered(meter)
	}

	o := &Object{
		info:    info,
		alg:     alg,
		procs:   cfg.procs,
		oneShot: alg.OneShot(),
		meter:   meter,
		base:    base,
		metered: metered,
		table:   alg.WriterTable(),
		free:    make(chan *proc, cfg.procs),
		closed:  make(chan struct{}),
	}
	if o.oneShot {
		o.exhausted = make(chan struct{})
	}
	return o, nil
}
