// Package tsload drives paper-shaped traffic against a timestamp object
// and measures it: the workload-generation and latency-measurement layer
// between the tsspace SDK and the repository's experiments.
//
// A run is a Mix (steady, churn, burst, crash, tenants, storm — the
// engine's scenario vocabulary lifted to the session level) applied to a
// Target (the in-process SDK, or a tsserved daemon over wire v2 or wire
// v3) under one of two pacing disciplines. The mixes that need a lease
// manager — crash (a reaper), tenants and storm (the broker and its
// quota) — run against a daemon only: tsserve is the one place leases
// are reaped, rationed and namespaced. Targets lease
// tsspace.SessionAPI, so the driver's operation code is the same on every
// backend; the mix's Batch knob swaps the single-call GetTS for
// GetTSBatch of that size, pricing batch amortization against the same
// harness. Two pacing disciplines:
//
//   - closed loop (Rate == 0): Workers goroutines issue operations back to
//     back — throughput is whatever the target sustains, latency is pure
//     service time.
//   - open loop (Rate > 0): operations *arrive* on a fixed schedule
//     regardless of how the target is doing, and each operation's latency
//     is measured from its intended arrival, not from when a worker got
//     around to it. A slow target therefore shows its queueing delay
//     instead of silently suppressing it — the coordinated-omission trap
//     open-loop pacing exists to avoid.
//
// Runs are warmup/measure windowed, deterministically seeded (namespace
// routing and lease-abandon draws come from per-worker RNGs derived from
// Config.Seed) and land per-op latencies in per-worker internal/hist
// histograms that merge into one digest. One-shot targets end naturally
// when the paper's M-timestamp budget is spent; the driver flags it
// instead of failing.
//
// As a free correctness check, the driver asserts the happens-before
// property twice, with tsspace.Less as the order. Every worker checks its
// own operation stream: its getTS calls are sequential, so every timestamp
// it receives must order strictly after the previous one it received from
// the same object, within a batch and across batches and leases. And every
// worker logs the monotonic interval of its first hbLogOps operations; at
// run end hbcheck.Check orders the logs of all workers against each other,
// per namespace, so a timestamp that a call of another worker completed
// before it began must order below it too. Violations are counted, not
// fatal.
package tsload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tsspace"
	"tsspace/internal/hbcheck"
	"tsspace/internal/hist"
	"tsspace/tsserve"
)

// Config parameterizes one Run.
type Config struct {
	// Mix is the workload shape; see Mixes for the built-in catalog.
	Mix Mix
	// Target is the object under load. Run does not close it.
	Target Target
	// Workers is the closed-loop concurrency, or the consumer pool bound
	// (max in-flight operations) under open-loop pacing; values < 1 mean 8.
	Workers int
	// Rate switches to open-loop pacing: intended operation arrivals per
	// second. 0 runs closed-loop.
	Rate float64
	// Warmup is discarded time before the measure window.
	Warmup time.Duration
	// Duration is the measure window; values <= 0 mean 1s.
	Duration time.Duration
	// BurstGap is the closed-loop idle gap between bursts when the mix has
	// BurstSize > 1; values <= 0 mean 500µs.
	BurstGap time.Duration
	// Seed feeds the per-worker RNGs; same seed, same namespace-routing and
	// lease-abandon decisions.
	Seed int64
	// MaxOps ends the run once this many operations have been measured;
	// 0 means time-bounded only.
	MaxOps uint64
	// ProgressEvery enables live progress reporting: every interval, a
	// Progress snapshot of the running workload goes to OnProgress.
	// Zero (or a nil OnProgress) disables reporting.
	ProgressEvery time.Duration
	// OnProgress receives the periodic snapshots. It is called from the
	// run's reporter goroutine — never concurrently with itself — and
	// must not block for long (a slow consumer delays later snapshots,
	// nothing else).
	OnProgress func(Progress)
}

// Progress is one live snapshot of a running workload, delivered to
// Config.OnProgress every ProgressEvery: enough to watch a long run
// converge (or misbehave) without waiting for the final Result. Counters
// cover measured operations only; Errors, Abandoned and Dropped count
// the whole run like their Result namesakes.
type Progress struct {
	// Mix and Target identify the run (a sweep reports many runs through
	// one callback).
	Mix    string
	Target string
	// Phase is "warmup", "measure" or "done".
	Phase string
	// Elapsed is time since Run started; MeasureElapsed time since the
	// measure window opened (0 during warmup).
	Elapsed        time.Duration
	MeasureElapsed time.Duration
	// Ops counts the getTS ops measured so far; Timestamps is what they
	// issued.
	Ops        uint64
	Timestamps uint64
	// Throughput is measured ops per second of measure-window time so far.
	Throughput float64
	// P50Ns and P99Ns digest the latency recorded so far (nanoseconds).
	P50Ns int64
	P99Ns int64
	// Errors, Abandoned and Dropped are running totals, warmup included.
	Errors    uint64
	Abandoned uint64
	Dropped   uint64
}

// Result is one BENCH row: everything measured about one (mix, target,
// algorithm) run. Latency values are nanoseconds.
type Result struct {
	Mix       string  `json:"mix"`
	MixKind   string  `json:"mix_kind"`
	Target    string  `json:"target"`
	Algorithm string  `json:"algorithm"`
	Procs     int     `json:"procs"`
	Mode      string  `json:"mode"` // "closed" or "open"
	Workers   int     `json:"workers"`
	Rate      float64 `json:"rate_per_sec,omitempty"`
	Seed      int64   `json:"seed"`

	// BatchSize is the effective timestamps-per-getTS-op of the run (the
	// mix's Batch after the driver's one-shot forcing; 1 for single-call).
	BatchSize int `json:"batch_size"`

	// Ops counts measured getTS operations: one GetTS call or one whole
	// GetTSBatch each. Timestamps counts the timestamps those measured ops
	// issued (= Ops × BatchSize for full batches), so per-timestamp
	// throughput is Timestamps / ElapsedSeconds. Errors and HBViolations
	// count over the whole run, warmup included. HBViolations is the
	// number of issued timestamps that did not order strictly after their
	// worker's previous timestamp from the same object, plus one for each
	// namespace whose cross-worker check failed. HBChecked is the number
	// of operations that cross-worker check ordered: each worker's first
	// hbLogOps operations that issued a timestamp, warmup included.
	//
	// Errors splits into ExpectedErrors — failures the mix provokes by
	// design (ErrDetached after the daemon's reaper reclaimed a lease the
	// crash mix abandoned) — and UnexpectedErrors, everything else. A
	// crash-mix run is healthy iff UnexpectedErrors == 0 and
	// HBViolations == 0; gating on Errors == 0 would reject the fault
	// injection itself.
	Ops              uint64 `json:"ops"`
	Timestamps       uint64 `json:"timestamps"`
	Errors           uint64 `json:"errors"`
	ExpectedErrors   uint64 `json:"expected_errors,omitempty"`
	UnexpectedErrors uint64 `json:"unexpected_errors"`
	// Abandoned counts leases the workers crashed on purpose (see
	// Mix.AbandonFrac): sessions dropped without Detach, left for the
	// daemon's idle-TTL reaper.
	Abandoned    uint64 `json:"abandoned,omitempty"`
	HBViolations uint64 `json:"hb_violations"`
	HBChecked    uint64 `json:"hb_checked"`
	// Namespaces and NamespaceOps describe a multi-tenant run
	// (Mix.Namespaces > 0): how many namespaces were provisioned and how
	// many measured getTS ops routed to each ("load-0" first). The
	// per-namespace counts sum to Ops; under a Zipf-skewed mix the
	// first entries carry the hot tenants.
	Namespaces   int      `json:"namespaces,omitempty"`
	NamespaceOps []uint64 `json:"namespace_ops,omitempty"`
	// Dropped counts open-loop arrivals that could not even be queued
	// (dispatch backlog full). Non-zero means the latency digest
	// understates the overload — read it as a saturation flag.
	Dropped uint64 `json:"dropped,omitempty"`
	// BudgetSpent marks a one-shot target ending the run by exhausting its
	// M-timestamp budget.
	BudgetSpent bool `json:"budget_spent,omitempty"`

	ElapsedSeconds float64      `json:"elapsed_seconds"`
	Throughput     float64      `json:"throughput_ops_per_sec"`
	LatencyNs      hist.Summary `json:"latency_ns"`

	// AllocsPerOp and BytesPerOp are driver-process heap deltas over the
	// measure window divided by measured ops. In-process runs price the
	// SDK's allocation path; HTTP runs price the client stack (plus the
	// server's, when it shares the process).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`

	// Space is the target's register-space measure after the run, when
	// the backend exposes one.
	Space *tsspace.Space `json:"space,omitempty"`
}

const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseDone
)

type run struct {
	cfg      Config
	burst    int
	burstGap time.Duration
	attachEv int
	batch    int // timestamps per getTS op; 1 = single-call GetTS
	duration time.Duration
	warmEnd  time.Time
	warmCap  int64 // getTS issues that end warmup early (one-shot); -1 = none
	maxOps   uint64
	ns       *nsPlan // nil unless the mix is multi-namespace
	cancel   context.CancelFunc

	phase          atomic.Int32
	flipOnce       sync.Once
	finishOnce     sync.Once
	measureStartNs atomic.Int64
	measureEndNs   atomic.Int64
	doneNs         atomic.Int64
	memStart       runtime.MemStats

	issuedTS       atomic.Uint64 // timestamps requested, all phases (drives warmCap)
	measured       atomic.Uint64
	measuredIssued atomic.Uint64 // timestamps issued by measured getTS ops
	errs           atomic.Uint64
	expErrs        atomic.Uint64 // subset of errs the mix provokes by design
	abandoned      atomic.Uint64 // leases crashed on purpose (Mix.AbandonFrac)
	hbViolations   atomic.Uint64
	dropped        atomic.Uint64
	budgetSpent    atomic.Bool
}

// expectedErr reports whether an operation error is one the mix provokes
// by design: under a crash mix (AbandonFrac > 0) the daemon's reaper
// legitimately kills leases, so ErrDetached on a session the worker still
// holds is the fault injection working, not the target failing. Likewise
// under a quota'd namespace mix (NSQuota > 0) the attach storm is built
// to overrun the cap, so a typed quota rejection is the scenario working.
func (r *run) expectedErr(err error) bool {
	if r.cfg.Mix.AbandonFrac > 0 && errors.Is(err, tsspace.ErrDetached) {
		return true
	}
	return r.cfg.Mix.NSQuota > 0 && errors.Is(err, tsserve.ErrQuota)
}

// ErrBadConfig is wrapped by every configuration-validation failure
// out of Run.
var ErrBadConfig = errors.New("tsload: invalid config")

// Run executes one workload against cfg.Target and returns its Result. It
// returns an error only for unusable configurations or a cancelled ctx;
// operation failures are counted in the Result instead.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Target == nil {
		return Result{}, fmt.Errorf("%w: Config.Target is nil", ErrBadConfig)
	}
	if cfg.Mix.Name == "" {
		return Result{}, fmt.Errorf("%w: Config.Mix has no name", ErrBadConfig)
	}
	if _, inproc := cfg.Target.(*InProc); inproc && cfg.Mix.AbandonFrac > 0 {
		return Result{}, fmt.Errorf("%w: mix %q abandons leases, and target %q has no reaper to reclaim them",
			ErrBadConfig, cfg.Mix.Name, cfg.Target.Kind())
	}
	if cfg.Workers < 1 {
		cfg.Workers = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.BurstGap <= 0 {
		cfg.BurstGap = 500 * time.Microsecond
	}

	r := &run{
		cfg:      cfg,
		burst:    cfg.Mix.BurstSize,
		burstGap: cfg.BurstGap,
		attachEv: cfg.Mix.AttachEvery,
		batch:    cfg.Mix.Batch,
		duration: cfg.Duration,
		warmCap:  -1,
		maxOps:   cfg.MaxOps,
	}
	if r.batch < 1 {
		r.batch = 1
	}
	if cfg.Target.OneShot() {
		// One paper-process, one timestamp: every lease is single-use,
		// batches collapse to 1, and warmup may spend at most a fifth of
		// the M = procs budget so the measure window still sees the rest.
		r.attachEv = 1
		r.batch = 1
		r.warmCap = int64(cfg.Target.Procs()) / 5
	}
	if cfg.Mix.Namespaces > 0 {
		plan, err := provisionNamespaces(ctx, cfg)
		if err != nil {
			return Result{}, err
		}
		defer plan.teardown()
		r.ns = plan
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.cancel = cancel

	// The logs are allocated before the measure window can open, so
	// AllocsPerOp does not see them.
	start := time.Now()
	logs := make([]hbLog, cfg.Workers)
	for w := range logs {
		logs[w] = newHBLog(start, r.batch)
	}

	r.warmEnd = start.Add(cfg.Warmup)
	r.tick(start)

	// The phase clock must advance even when every worker is blocked inside
	// an operation (e.g. a daemon that accepts but never replies): a
	// watchdog ticks the run so the Duration deadline always fires,
	// cancelling runCtx and unblocking ctx-aware operations.
	go func() {
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case now := <-t.C:
				r.tick(now)
			}
		}
	}()

	hists := make([]*hist.H, cfg.Workers)
	var wg sync.WaitGroup
	var tokens chan token
	if cfg.Rate > 0 {
		tokens = make(chan token, tokenBacklog(cfg))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.dispatch(runCtx, tokens)
		}()
	}
	for w := 0; w < cfg.Workers; w++ {
		hists[w] = hist.New()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(runCtx, w, hists[w], &logs[w], tokens)
		}(w)
	}
	reporting := cfg.ProgressEvery > 0 && cfg.OnProgress != nil
	var repWG sync.WaitGroup
	if reporting {
		repWG.Add(1)
		go func() {
			defer repWG.Done()
			r.report(runCtx, start, hists)
		}()
	}
	wg.Wait()
	r.finish(time.Now())
	// The final "done" snapshot fires only after every worker has joined
	// and the reporter has stopped, so it sees the settled counters and
	// OnProgress is never called concurrently with itself.
	repWG.Wait()
	if reporting {
		cfg.OnProgress(r.snapshot(start, time.Now(), hists))
	}

	var memEnd runtime.MemStats
	runtime.ReadMemStats(&memEnd)

	merged := hist.New()
	for _, h := range hists {
		merged.Merge(h)
	}
	namespaces := 1
	if r.ns != nil {
		namespaces = len(r.ns.names)
	}
	hbChecked, hbFailed := checkAcross(logs, namespaces)

	res := Result{
		Mix:              cfg.Mix.Name,
		MixKind:          cfg.Mix.Kind(),
		Target:           cfg.Target.Kind(),
		Algorithm:        cfg.Target.Algorithm(),
		Procs:            cfg.Target.Procs(),
		Mode:             "closed",
		Workers:          cfg.Workers,
		Rate:             cfg.Rate,
		Seed:             cfg.Seed,
		BatchSize:        r.batch,
		Ops:              r.measured.Load(),
		Timestamps:       r.measuredIssued.Load(),
		Errors:           r.errs.Load(),
		ExpectedErrors:   r.expErrs.Load(),
		UnexpectedErrors: r.errs.Load() - r.expErrs.Load(),
		Abandoned:        r.abandoned.Load(),
		HBViolations:     r.hbViolations.Load() + hbFailed,
		HBChecked:        hbChecked,
		Dropped:          r.dropped.Load(),
		BudgetSpent:      r.budgetSpent.Load(),
		LatencyNs:        merged.Summarize(),
	}
	if r.ns != nil {
		res.Namespaces = len(r.ns.names)
		res.NamespaceOps = make([]uint64, len(r.ns.ops))
		for i := range r.ns.ops {
			res.NamespaceOps[i] = r.ns.ops[i].Load()
		}
	}
	if cfg.Rate > 0 {
		res.Mode = "open"
	}
	// A flip that lost the race against an early finish can leave
	// measureStartNs ≥ doneNs; such a run measured nothing.
	if ms := r.measureStartNs.Load(); ms > 0 && r.doneNs.Load() > ms {
		res.ElapsedSeconds = float64(r.doneNs.Load()-ms) / 1e9
	}
	if res.ElapsedSeconds > 0 {
		res.Throughput = float64(res.Ops) / res.ElapsedSeconds
	}
	if res.Ops > 0 {
		res.AllocsPerOp = float64(memEnd.Mallocs-r.memStart.Mallocs) / float64(res.Ops)
		res.BytesPerOp = float64(memEnd.TotalAlloc-r.memStart.TotalAlloc) / float64(res.Ops)
	}
	// Space is post-run metadata: against an unresponsive HTTP target it
	// must not hang the run that the watchdog just ended.
	spaceCtx, cancelSpace := context.WithTimeout(ctx, 5*time.Second)
	defer cancelSpace()
	if sp, ok := cfg.Target.Space(spaceCtx); ok {
		res.Space = &sp
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// tokenBacklog sizes the open-loop dispatch queue to hold every intended
// arrival of the run, so an overloaded target queues arrivals (and their
// waiting time lands in the latency digest) instead of stalling the
// arrival process itself.
func tokenBacklog(cfg Config) int {
	const max = 1 << 20
	// Compare in float space: an extreme Rate must hit the cap, not
	// overflow the int conversion.
	est := cfg.Rate*(cfg.Warmup+cfg.Duration).Seconds()*1.2 + float64(2*cfg.Workers) + 64
	if !(est < max) {
		return max
	}
	return int(est)
}

// tick advances the phase machine: warmup ends on the clock or on the
// one-shot warmup budget; the measure window ends on the clock or on
// MaxOps. Returns the current phase.
func (r *run) tick(now time.Time) int32 {
	switch r.phase.Load() {
	case phaseWarm:
		if !now.Before(r.warmEnd) || (r.warmCap >= 0 && int64(r.issuedTS.Load()) >= r.warmCap) {
			r.flipOnce.Do(func() {
				ns := now.UnixNano()
				r.measureStartNs.Store(ns)
				r.measureEndNs.Store(ns + r.duration.Nanoseconds())
				runtime.ReadMemStats(&r.memStart)
				// CAS, not Store: finish() may have ended the run (one-shot
				// exhaustion during warmup) while this flip was in flight,
				// and done must never be resurrected to measure.
				r.phase.CompareAndSwap(phaseWarm, phaseMeasure)
			})
		}
	case phaseMeasure:
		if now.UnixNano() >= r.measureEndNs.Load() ||
			(r.maxOps > 0 && r.measured.Load() >= r.maxOps) {
			r.finish(now)
		}
	}
	return r.phase.Load()
}

// finish ends the run: it freezes the measured window's end time and
// releases every blocked worker.
func (r *run) finish(now time.Time) {
	r.finishOnce.Do(func() {
		r.doneNs.Store(now.UnixNano())
		r.phase.Store(phaseDone)
		r.cancel()
	})
}

// report is the live progress goroutine: every ProgressEvery it merges
// the per-worker histograms into a fresh digest and hands OnProgress a
// snapshot. Merging reads each worker's atomic bucket counters without
// disturbing them, so reporting costs the workers nothing. The final
// "done" snapshot is fired by Run after the workers join, not here, so
// it always reflects the settled counters.
func (r *run) report(ctx context.Context, start time.Time, hists []*hist.H) {
	t := time.NewTicker(r.cfg.ProgressEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			r.cfg.OnProgress(r.snapshot(start, now, hists))
		}
	}
}

// snapshot assembles one Progress from the run's live counters.
func (r *run) snapshot(start, now time.Time, hists []*hist.H) Progress {
	p := Progress{
		Mix:        r.cfg.Mix.Name,
		Target:     r.cfg.Target.Kind(),
		Elapsed:    now.Sub(start),
		Ops:        r.measured.Load(),
		Timestamps: r.measuredIssued.Load(),
		Errors:     r.errs.Load(),
		Abandoned:  r.abandoned.Load(),
		Dropped:    r.dropped.Load(),
	}
	switch r.phase.Load() {
	case phaseWarm:
		p.Phase = "warmup"
	case phaseMeasure:
		p.Phase = "measure"
	default:
		p.Phase = "done"
	}
	ms := r.measureStartNs.Load()
	end := now.UnixNano()
	if d := r.doneNs.Load(); d > 0 && d < end {
		end = d
	}
	if ms > 0 && end > ms {
		p.MeasureElapsed = time.Duration(end - ms)
		p.Throughput = float64(p.Ops) / p.MeasureElapsed.Seconds()
	}
	merged := hist.New()
	for _, h := range hists {
		merged.Merge(h)
	}
	if merged.Count() > 0 {
		p.P50Ns = merged.Quantile(0.50)
		p.P99Ns = merged.Quantile(0.99)
	}
	return p
}

// token is one open-loop arrival. Latency is measured against intended —
// if every worker is busy when the token's moment comes, the wait in the
// queue is part of the operation's latency.
type token struct {
	intended time.Time
	measured bool
}

// dispatch generates the open-loop arrival schedule: one token per
// 1/Rate seconds, or BurstSize tokens at once every BurstSize/Rate seconds
// for burst mixes.
func (r *run) dispatch(ctx context.Context, tokens chan<- token) {
	defer close(tokens)
	interval := time.Duration(float64(time.Second) / r.cfg.Rate)
	group := 1
	if r.burst > 1 {
		group = r.burst
	}
	next := time.Now()
	for {
		ph := r.tick(time.Now())
		if ph == phaseDone {
			return
		}
		for i := 0; i < group; i++ {
			select {
			case tokens <- token{intended: next, measured: ph == phaseMeasure}:
			default:
				r.dropped.Add(1)
			}
		}
		next = next.Add(interval * time.Duration(group))
		// Sleep to the next arrival in bounded slices, ticking in between:
		// at low rates the inter-arrival gap can exceed what remains of the
		// measure window, and nobody else may be awake to end the run.
		for {
			d := time.Until(next)
			if d <= 0 {
				break
			}
			if d > 25*time.Millisecond {
				d = 25 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
			if r.tick(time.Now()) == phaseDone {
				return
			}
		}
	}
}

// hbStream is a worker's happens-before check. The worker's getTS calls
// are sequential, so each timestamp it receives must order strictly after
// the previous one it received from the same object. Timestamps from
// different objects are never ordered, so the stream restarts whenever a
// lease binds another namespace.
type hbStream struct {
	prev tsspace.Timestamp
	have bool
}

// observe checks ts, in issue order, against the stream and returns how
// many of them failed to order after their predecessor.
func (h *hbStream) observe(ts []tsspace.Timestamp) (bad uint64) {
	for _, t := range ts {
		if h.have && !tsspace.Less(h.prev, t) {
			bad++
		}
		h.prev, h.have = t, true
	}
	return bad
}

// hbLogOps bounds each worker's hbLog: the cross-worker check orders a
// worker's first hbLogOps operations that issued a timestamp.
const hbLogOps = 4096

// hbLog is one worker's record for the cross-worker happens-before check.
// An operation that issued timestamps is logged as an hbcheck.Event over
// the monotonic interval the worker timed around it: one event for a
// single timestamp, two for a batch, its first and its last. So the check
// asks that both ends of an earlier operation order below both ends of a
// later one; order inside a batch is the worker's hbStream's to check.
// The log is allocated once, before the run; only its worker appends to
// it, and Run reads it after the workers have joined.
type hbLog struct {
	epoch   time.Time // zero of the interval stamps
	entries []hbEntry
	ops     int // operations logged
}

// hbEntry is one logged event and the namespace index of the object that
// issued it.
type hbEntry struct {
	ns int
	ev hbcheck.Event
}

func newHBLog(epoch time.Time, batch int) hbLog {
	perOp := 1
	if batch > 1 {
		perOp = 2
	}
	return hbLog{epoch: epoch, entries: make([]hbEntry, 0, perOp*hbLogOps)}
}

// add logs worker w's operation that issued ts from namespace ns between
// start and end. Once the log is full it costs one comparison.
func (l *hbLog) add(w, ns int, start, end time.Time, ts []tsspace.Timestamp) {
	if l.ops < hbLogOps && len(ts) > 0 {
		l.record(w, ns, start, end, ts)
	}
}

func (l *hbLog) record(w, ns int, start, end time.Time, ts []tsspace.Timestamp) {
	ev := hbcheck.Event{Pid: w, Seq: l.ops, Start: uint64(start.Sub(l.epoch)), End: uint64(end.Sub(l.epoch)), Val: ts[0]}
	l.entries = append(l.entries, hbEntry{ns: ns, ev: ev})
	if len(ts) > 1 {
		ev.Val = ts[len(ts)-1]
		l.entries = append(l.entries, hbEntry{ns: ns, ev: ev})
	}
	l.ops++
}

// checkAcross runs hbcheck.Check over all workers' logs together, once
// per namespace index: timestamps of different objects are never ordered.
// It returns the operations checked and the namespaces that failed.
func checkAcross(logs []hbLog, namespaces int) (checked, failed uint64) {
	byNS := make([][]hbcheck.Event, namespaces)
	for _, l := range logs {
		checked += uint64(l.ops)
		for _, e := range l.entries {
			byNS[e.ns] = append(byNS[e.ns], e.ev)
		}
	}
	for _, events := range byNS {
		if hbcheck.Check(events) != nil {
			failed++
		}
	}
	return checked, failed
}

// worker issues operations until the run ends: paced by tokens under open
// loop, back to back (with burst gaps) under closed loop. The batch
// buffer and the hbLog are allocated once per worker, so batched runs put
// no allocation on the op path beyond what the target itself costs.
func (r *run) worker(ctx context.Context, id int, h *hist.H, hl *hbLog, tokens <-chan token) {
	rng := rand.New(rand.NewSource(r.cfg.Seed*1000003 + int64(id)))
	var sess tsspace.SessionAPI
	var leaseCalls int
	var nsIdx int // namespace of the current lease, when r.ns != nil
	pickNS := r.nsPicker(rng)
	var hb hbStream
	buf := make([]tsspace.Timestamp, r.batch)
	defer func() {
		if sess != nil {
			_ = sess.Detach()
		}
	}()

	opsInBurst := 0
	for {
		now := time.Now()
		ph := r.tick(now)
		if ph == phaseDone {
			return
		}

		var tok token
		if tokens != nil { // open loop: wait for the next arrival
			var open bool
			select {
			case tok, open = <-tokens:
				if !open {
					return
				}
			case <-ctx.Done():
				return
			}
		} else if r.burst > 1 && opsInBurst >= r.burst { // closed loop: burst gap
			opsInBurst = 0
			select {
			case <-ctx.Done():
				return
			case <-time.After(r.burstGap):
			}
			ph = r.tick(time.Now())
			if ph == phaseDone {
				return
			}
		}

		start := time.Now()
		issued, err := r.doOp(ctx, rng, &sess, &leaseCalls, &nsIdx, pickNS, &hb, buf)
		end := time.Now()
		opsInBurst++
		hl.add(id, nsIdx, start, end, buf[:issued])

		if err != nil {
			if IsExhausted(err) {
				r.budgetSpent.Store(true)
				r.finish(end)
				return
			}
			if ctx.Err() != nil {
				return
			}
			r.errs.Add(1)
			if r.expectedErr(err) {
				r.expErrs.Add(1)
			}
			continue
		}

		lat := end.Sub(start)
		record := ph == phaseMeasure
		if tokens != nil {
			lat = end.Sub(tok.intended)
			record = tok.measured
		}
		if record {
			h.Record(lat.Nanoseconds())
			r.measured.Add(1)
			r.measuredIssued.Add(uint64(issued))
			if r.ns != nil {
				r.ns.ops[nsIdx].Add(1)
			}
		}
	}
}

// nsPicker builds a worker's namespace draw: Zipf-skewed over the
// namespace indices when the mix sets ZipfS > 1 (namespace 0 hottest),
// uniform otherwise, nil-safe no-op for single-object runs. Each worker
// derives its picker from its own seeded rng, so routing is
// deterministic per seed like every other mix decision.
func (r *run) nsPicker(rng *rand.Rand) func() int {
	if r.ns == nil {
		return func() int { return 0 }
	}
	n := len(r.ns.names)
	if r.cfg.Mix.ZipfS > 1 && n > 1 {
		z := rand.NewZipf(rng, r.cfg.Mix.ZipfS, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(n) }
}

// doOp performs one getTS operation under the mix's session-lease and
// batch policy, checking every timestamp it issues against the worker's
// happens-before stream hb. issued is the number of timestamps it
// produced.
func (r *run) doOp(ctx context.Context, rng *rand.Rand, sess *tsspace.SessionAPI, leaseCalls *int, nsIdx *int, pickNS func() int, hb *hbStream, buf []tsspace.Timestamp) (issued int, err error) {
	r.issuedTS.Add(uint64(r.batch))
	if *sess == nil {
		var s tsspace.SessionAPI
		var err error
		if r.ns != nil {
			// Multi-tenant routing: each new lease draws its namespace
			// (Zipf-skewed when the mix says so) and binds into it. A
			// different namespace is a different object, so the
			// happens-before stream restarts.
			if idx := pickNS(); idx != *nsIdx {
				*nsIdx = idx
				hb.have = false
			}
			s, err = r.ns.prov.AttachNamespace(ctx, r.ns.names[*nsIdx])
		} else {
			s, err = r.cfg.Target.Attach(ctx)
		}
		if err != nil {
			return 0, err
		}
		*sess = s
		*leaseCalls = 0
	}
	if r.batch > 1 {
		issued, err = (*sess).GetTSBatch(ctx, buf)
	} else {
		// Batch 1 goes through GetTS proper, so the single-call entry
		// point stays priced.
		var ts tsspace.Timestamp
		ts, err = (*sess).GetTS(ctx)
		if err == nil {
			buf[0], issued = ts, 1
		}
	}
	if bad := hb.observe(buf[:issued]); bad > 0 {
		r.hbViolations.Add(bad)
	}
	if err != nil {
		// A dead lease must not wedge the worker: drop it either way.
		_ = (*sess).Detach()
		*sess = nil
		return issued, err
	}
	*leaseCalls++ // AttachEvery counts getTS operations: a whole batch is one
	if r.attachEv > 0 && *leaseCalls >= r.attachEv {
		if r.cfg.Mix.AbandonFrac > 0 && rng.Float64() < r.cfg.Mix.AbandonFrac {
			// Crash: walk away from the lease without Detach. The pid
			// stays leased until the daemon's idle-TTL reaper reclaims
			// it — the abandonment path this mix exists to exercise.
			*sess = nil
			r.abandoned.Add(1)
			return issued, nil
		}
		err := (*sess).Detach()
		*sess = nil
		if err != nil {
			return issued, fmt.Errorf("tsload: detach: %w", err)
		}
	}
	return issued, nil
}
