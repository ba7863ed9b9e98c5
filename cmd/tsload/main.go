// Command tsload drives paper-shaped workloads against timestamp objects
// and records the repository's perf trajectory as machine-readable
// BENCH_<scenario>.json files: throughput, p50/p90/p99/p999 latency, the
// register-space report and driver-side allocation rates, per
// (mix × target × algorithm) row.
//
// Each scenario is one of the built-in mixes (steady, churn, burst,
// crash, tenants, storm — see tsspace/tsload); each algorithm comes from
// the registry (every non-mutant implementation by default); each row
// runs against the in-process SDK and against tsserve over both wires,
// so the delta prices the wire.
//
// Usage:
//
//	tsload [-scenarios all] [-algs all] [-targets inproc,http,binary]
//	       [-batch 1] [-procs 64] [-oneshot-procs 4096] [-workers 16]
//	       [-rate 0] [-duration 2s] [-warmup 300ms] [-maxops 0]
//	       [-seed 1] [-progress 0] [-out .] [-url http://...]
//	       [-binary-url host:port] [-cpuprofile f] [-memprofile f]
//	tsload -mixes               list the workload mixes
//	tsload -smoke               short closed-loop sweep (every mix on
//	                            every transport it supports, collect +
//	                            sqrt; plus a batch-size sweep 1/16/256
//	                            over wire v2, wire v3 and in process)
//	                            gated on zero unexpected errors and zero
//	                            happens-before violations (every issued
//	                            timestamp is checked locally against its
//	                            worker's previous one; the crash mix
//	                            provokes ErrDetached by design; those are
//	                            counted as expected); writes
//	                            BENCH_smoke.json
//
// -batch takes a comma-separated list of batch sizes (timestamps per getTS
// op via SessionAPI.GetTSBatch) and multiplies the sweep, so one run
// prices batch=1 vs 16 vs 256 on every side of the wire. The http target
// speaks wire v2 (one session leased per worker, batches pipelined on it);
// the binary target speaks wire v3 (the same lease over a persistent
// binary connection — see tsspace/tsserve).
//
// Without -url, wire rows self-host a tsserved-equivalent server (HTTP
// and binary listeners) on loopback per run, so every algorithm gets a
// fresh daemon (and a fresh one-shot budget). With -url, http rows run
// against that external daemon instead — only for the algorithm it
// serves; binary rows join them when -binary-url names its binary
// listener, and self-host otherwise. The mixes that need a lease
// manager always self-host their wire rows and have no inproc rows: the
// crash mix needs a reaper armed with a short TTL, and the multi-tenant
// mixes (tenants, storm) provision their own namespaces with a quota —
// the daemon does all three, the in-process SDK none.
//
// -cpuprofile and -memprofile write pprof profiles of the whole run
// (driver side: the client encoding/decoding paths under load), for
// chasing allocations or cycles out of the transports.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tsspace"
	"tsspace/internal/timestamp"
	"tsspace/tsload"
	"tsspace/tsserve"
)

type options struct {
	procs        int
	oneshotProcs int
	workers      int
	rate         float64
	duration     time.Duration
	warmup       time.Duration
	maxOps       uint64
	seed         int64
	progress     time.Duration // live Progress snapshot interval; 0 = off
	url          string
	binURL       string       // external daemon's binary listener, beside url
	hc           *http.Client // shared by every http row of the sweep
}

func main() {
	scenarios := flag.String("scenarios", "all", "comma-separated mix names, or all: "+strings.Join(tsload.MixNames(), " | "))
	algs := flag.String("algs", "all", "comma-separated algorithm names, or all: "+strings.Join(tsspace.Algorithms(), " | "))
	targets := flag.String("targets", "inproc,http,binary", "comma-separated backends: inproc | http | binary")
	batches := flag.String("batch", "1", "comma-separated batch sizes (timestamps per getTS op); multiplies the sweep")
	procs := flag.Int("procs", 64, "paper-processes n for long-lived objects")
	oneshotProcs := flag.Int("oneshot-procs", 4096, "paper-processes n (= timestamp budget M) for one-shot objects")
	workers := flag.Int("workers", 16, "closed-loop concurrency / open-loop in-flight bound")
	rate := flag.Float64("rate", 0, "open-loop arrivals per second; 0 = closed loop")
	duration := flag.Duration("duration", 2*time.Second, "measure window per run")
	warmup := flag.Duration("warmup", 300*time.Millisecond, "warmup before the measure window")
	maxOps := flag.Uint64("maxops", 0, "end a run after this many measured ops; 0 = time-bounded")
	seed := flag.Int64("seed", 1, "base seed of the per-worker RNGs")
	progress := flag.Duration("progress", 0, "print a live progress line (per-mix throughput, p50/p99, error counts) to stderr at this interval; 0 disables")
	out := flag.String("out", ".", "directory for BENCH_<scenario>.json")
	url := flag.String("url", "", "external tsserved base URL for http rows (default: self-host per run)")
	binURL := flag.String("binary-url", "", "external tsserved binary listener (host:port) for binary rows; needs -url for the control plane")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	mixes := flag.Bool("mixes", false, "list the workload mixes and exit")
	smoke := flag.Bool("smoke", false, "short gated sweep writing BENCH_smoke.json")
	flag.Parse()

	if *mixes {
		for _, m := range tsload.Mixes() {
			fmt.Printf("%-8s %s\n", m.Name, m.Summary)
		}
		return
	}

	opt := options{
		procs: *procs, oneshotProcs: *oneshotProcs, workers: *workers,
		rate: *rate, duration: *duration, warmup: *warmup,
		maxOps: *maxOps, seed: *seed, progress: *progress,
		url: *url, binURL: *binURL,
	}
	opt.hc = newHTTPClient(opt.workers)
	ctx := context.Background()

	if opt.binURL != "" && opt.url == "" {
		fmt.Fprintln(os.Stderr, "tsload: -binary-url needs -url: the binary protocol is the data plane only; health and metrics stay on HTTP")
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsload: %v\n", err)
		os.Exit(2)
	}
	defer stopProfiles()

	if opt.url != "" {
		// An external daemon is shared by every http row of the sweep; a
		// one-shot daemon has a single M-timestamp budget, so every row
		// after the first measures an already-spent object. The smoke gate
		// would fail spuriously on that — refuse; plain sweeps get a
		// warning, since running one row to exhaustion is legitimate.
		t, err := tsload.NewHTTP(ctx, opt.url, opt.hc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsload: %v\n", err)
			os.Exit(2)
		}
		if t.OneShot() {
			if *smoke {
				fmt.Fprintf(os.Stderr, "tsload: smoke needs a long-lived daemon, but %s serves one-shot %q "+
					"(its single budget would be shared by every smoke row); spawn e.g. -alg collect, or drop -url\n",
					opt.url, t.Algorithm())
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "tsload: warning: daemon at %s serves one-shot %q — its single M-timestamp "+
				"budget is shared by every http row of this sweep; rows after exhaustion will be empty\n",
				opt.url, t.Algorithm())
		}
	}

	if *smoke {
		if err := runSmoke(ctx, *out, opt); err != nil {
			fmt.Fprintf(os.Stderr, "tsload: smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("tsload smoke ok")
		return
	}

	mixList, err := parseMixes(*scenarios)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsload: %v\n", err)
		os.Exit(2)
	}
	algList, err := parseAlgs(*algs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsload: %v\n", err)
		os.Exit(2)
	}
	batchList, err := parseBatches(*batches)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsload: %v\n", err)
		os.Exit(2)
	}
	targetList := strings.Split(*targets, ",")
	for i, tgt := range targetList {
		targetList[i] = strings.TrimSpace(tgt)
		switch targetList[i] {
		case "inproc", "http", "binary":
		default:
			fmt.Fprintf(os.Stderr, "tsload: unknown target %q (want inproc, http or binary)\n", tgt)
			os.Exit(2)
		}
	}

	for _, mix := range mixList {
		results, err := sweep(ctx, mix, algList, targetList, batchList, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsload: %v\n", err)
			os.Exit(1)
		}
		path, err := writeBench(*out, mix.Name, results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsload: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", path, len(results))
	}
}

func parseMixes(s string) ([]tsload.Mix, error) {
	if s == "all" {
		return tsload.Mixes(), nil
	}
	var out []tsload.Mix
	for _, name := range strings.Split(s, ",") {
		m, ok := tsload.LookupMix(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown mix %q (have %v)", name, tsload.MixNames())
		}
		out = append(out, m)
	}
	return out, nil
}

func parseAlgs(s string) ([]string, error) {
	if s == "all" {
		return tsspace.Algorithms(), nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if _, ok := timestamp.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown algorithm %q (have %v)", name, timestamp.AllNames())
		}
		out = append(out, name)
	}
	return out, nil
}

// parseBatches parses the -batch list of getTS batch sizes.
func parseBatches(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || b < 1 {
			return nil, fmt.Errorf("bad batch size %q (want positive integers)", part)
		}
		out = append(out, b)
	}
	return out, nil
}

// startProfiles starts the optional pprof capture and returns the
// function that flushes it: CPU sampling runs for the whole process, the
// heap profile is snapped (after a GC, so it shows live retention) on the
// way out.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tsload: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tsload: memprofile: %v\n", err)
			}
		}
	}, nil
}

// isOneShot consults the registry's declared flag.
func isOneShot(alg string) bool {
	info, ok := timestamp.Lookup(alg)
	return ok && info.OneShot
}

// newHTTPClient builds the one client a whole sweep shares: every row has
// identical transport needs, and reusing the pool avoids piling up idle
// keep-alive connections row after row.
func newHTTPClient(workers int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * workers,
		MaxIdleConnsPerHost: 4 * workers,
	}}
}

// sweep runs one mix across algorithms × targets × batch sizes and
// collects the rows. One-shot algorithms skip batch sizes > 1 (the driver
// would force them to 1 anyway, duplicating the batch=1 row).
func sweep(ctx context.Context, mix tsload.Mix, algs, targets []string, batches []int, opt options) ([]tsload.Result, error) {
	var results []tsload.Result
	for _, alg := range algs {
		for _, tgt := range targets {
			for _, batch := range batches {
				if batch > 1 && isOneShot(alg) {
					continue
				}
				res, skip, err := runOne(ctx, mix.WithBatch(batch), alg, tgt, opt)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s/batch=%d: %w", mix.Name, tgt, alg, batch, err)
				}
				if skip {
					continue
				}
				fmt.Println(row(res))
				results = append(results, res)
			}
		}
	}
	return results, nil
}

// crashTTL is the session TTL armed on the daemons the crash mix runs
// against: short enough that abandoned pids circulate many times inside a
// smoke window, long enough that a live worker's inter-op pause never
// trips it.
const crashTTL = 100 * time.Millisecond

// runOne builds a fresh target for (alg, kind) and drives mix against it.
// skip is true for http rows against an external daemon serving a
// different algorithm. The mixes that need a lease manager run on a
// daemon this driver hosts itself, even under -url: the crash mix needs
// the reaper armed with crashTTL (a shared daemon's 60s default would let
// the abandoned pids wedge the namespace for the whole run, and crashing
// a shared daemon's leases is not this driver's call to make), and the
// multi-tenant mixes provision and force-deprovision namespaces, which is
// not its call on a shared daemon either. The in-process SDK reaps,
// rations and namespaces nothing, so those mixes skip their inproc rows.
func runOne(ctx context.Context, mix tsload.Mix, alg, kind string, opt options) (tsload.Result, bool, error) {
	procs := opt.procs
	if isOneShot(alg) {
		procs = opt.oneshotProcs
	}
	selfHosted := mix.Namespaces > 0 || mix.AbandonFrac > 0
	if selfHosted && kind == "inproc" {
		return tsload.Result{}, true, nil
	}
	var ttl time.Duration
	if mix.AbandonFrac > 0 {
		ttl = crashTTL
	}

	var target tsload.Target
	switch kind {
	case "inproc":
		obj, err := tsspace.New(tsspace.WithAlgorithm(alg), tsspace.WithProcs(procs), tsspace.WithMetering())
		if err != nil {
			return tsload.Result{}, false, err
		}
		t := tsload.NewInProc(obj)
		defer t.Close()
		target = t
	case "http":
		baseURL := opt.url
		if baseURL == "" || selfHosted {
			hosted, stop, err := selfHost(alg, procs, ttl)
			if err != nil {
				return tsload.Result{}, false, err
			}
			defer stop()
			baseURL = hosted.baseURL
		}
		t, err := tsload.NewHTTP(ctx, baseURL, opt.hc)
		if err != nil {
			return tsload.Result{}, false, err
		}
		if t.Algorithm() != alg {
			return tsload.Result{}, true, nil // external daemon serves another algorithm
		}
		target = t
	case "binary":
		// External only when both planes are named (-url carries health and
		// metrics, -binary-url the data plane); otherwise self-host, so a
		// binary row never silently degrades to a different daemon than the
		// caller asked for.
		baseURL, binAddr := opt.url, opt.binURL
		if binAddr == "" || selfHosted {
			hosted, stop, err := selfHost(alg, procs, ttl)
			if err != nil {
				return tsload.Result{}, false, err
			}
			defer stop()
			baseURL, binAddr = hosted.baseURL, hosted.binAddr
		}
		t, err := tsload.NewBinary(ctx, baseURL, binAddr, opt.hc)
		if err != nil {
			return tsload.Result{}, false, err
		}
		defer t.Close()
		if t.Algorithm() != alg {
			return tsload.Result{}, true, nil // external daemon serves another algorithm
		}
		target = t
	default:
		return tsload.Result{}, false, fmt.Errorf("unknown target kind %q", kind)
	}

	cfg := tsload.Config{
		Mix:      mix,
		Target:   target,
		Workers:  opt.workers,
		Rate:     opt.rate,
		Warmup:   opt.warmup,
		Duration: opt.duration,
		Seed:     opt.seed,
		MaxOps:   opt.maxOps,
	}
	if opt.progress > 0 {
		cfg.ProgressEvery = opt.progress
		cfg.OnProgress = printProgress
	}
	res, err := tsload.Run(ctx, cfg)
	return res, false, err
}

// printProgress renders one live snapshot as a stderr line, so long runs
// show their per-mix throughput, tail latency and error counts while the
// BENCH rows are still cooking. stderr keeps the stdout row/JSON stream
// clean for pipelines.
func printProgress(p tsload.Progress) {
	line := fmt.Sprintf("progress: %-8s %-9s %-7s t=%-8s ops=%-9d %10.0f ops/s  p50=%-8s p99=%-8s",
		p.Mix, p.Target, p.Phase, p.Elapsed.Round(time.Millisecond), p.Ops, p.Throughput,
		time.Duration(p.P50Ns), time.Duration(p.P99Ns))
	if p.Errors > 0 {
		line += fmt.Sprintf(" errs=%d", p.Errors)
	}
	if p.Abandoned > 0 {
		line += fmt.Sprintf(" abandoned=%d", p.Abandoned)
	}
	if p.Dropped > 0 {
		line += fmt.Sprintf(" dropped=%d", p.Dropped)
	}
	fmt.Fprintln(os.Stderr, line)
}

// hosted names the two planes of a self-hosted daemon.
type hosted struct {
	baseURL string // HTTP listener: wire v2 + control plane
	binAddr string // wire-v3 binary listener
}

// selfHost serves a fresh metered object over loopback listeners — a
// per-run tsserved with both its HTTP front end and its wire-v3 binary
// listener — and returns their addresses plus the teardown. A non-zero
// ttl arms the daemon's wire-session reaper with it (crash-mix rows need
// abandoned leases back quickly); zero keeps tsserve's default.
func selfHost(alg string, procs int, ttl time.Duration) (hosted, func(), error) {
	obj, err := tsspace.New(tsspace.WithAlgorithm(alg), tsspace.WithProcs(procs), tsspace.WithMetering())
	if err != nil {
		return hosted{}, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		obj.Close()
		return hosted{}, nil, err
	}
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		obj.Close()
		return hosted{}, nil, err
	}
	h := tsserve.NewServer(obj, tsserve.ServerConfig{SessionTTL: ttl})
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	go func() { _ = h.ServeBinary(binLn) }()
	stop := func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		h.Close()
		obj.Close()
	}
	return hosted{baseURL: "http://" + ln.Addr().String(), binAddr: binLn.Addr().String()}, stop, nil
}

func writeBench(dir, scenario string, results []tsload.Result) (string, error) {
	return tsload.WriteBench(dir, tsload.BenchReport{
		Paper:       "conf_podc_HelmiHPW11",
		Scenario:    scenario,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        tsload.CurrentHost(),
		Results:     results,
	})
}

// row renders one result as a log line; space=W/R is the target's
// written and allocated registers, when it reported them.
func row(r tsload.Result) string {
	flags := ""
	if r.Space != nil {
		flags = fmt.Sprintf(" space=%d/%d", r.Space.Written, r.Space.Registers)
	}
	if r.BatchSize > 1 {
		flags += fmt.Sprintf(" batch=%d (%d ts)", r.BatchSize, r.Timestamps)
	}
	if r.BudgetSpent {
		flags += " budget-spent"
	}
	if r.Abandoned > 0 {
		flags += fmt.Sprintf(" abandoned=%d expected-errors=%d", r.Abandoned, r.ExpectedErrors)
	}
	if r.Namespaces > 0 {
		flags += fmt.Sprintf(" ns=%d", r.Namespaces)
		if r.ExpectedErrors > 0 && r.Abandoned == 0 {
			flags += fmt.Sprintf(" quota-rejections=%d", r.ExpectedErrors)
		}
	}
	if r.UnexpectedErrors > 0 {
		flags += fmt.Sprintf(" ERRORS=%d", r.UnexpectedErrors)
	}
	if r.HBViolations > 0 {
		flags += fmt.Sprintf(" HB-VIOLATIONS=%d", r.HBViolations)
	}
	return fmt.Sprintf("%-8s %-9s %-10s %10.0f ops/s  p50=%-8s p99=%-8s p999=%-8s max=%-8s n=%d hb-checked=%d%s",
		r.Mix, r.Target, r.Algorithm, r.Throughput,
		time.Duration(r.LatencyNs.P50), time.Duration(r.LatencyNs.P99),
		time.Duration(r.LatencyNs.P999), time.Duration(r.LatencyNs.Max),
		r.Ops, r.HBChecked, flags)
}

// runSmoke is the CI gate: a short ops-bounded closed-loop sweep of every
// mix against every transport it supports (the lease-managing mixes run
// on self-hosted daemons only) for a long-lived and a one-shot
// algorithm, plus a batch-size leg (1/16/256 in process, over wire v2 and
// over wire v3). It fails on any *unexpected* error, any happens-before
// violation, a row whose cross-worker happens-before check ordered no
// operation, a row without a space section (every smoke target meters:
// in-process objects are built WithMetering, and tsserved always meters),
// an empty row, or a batch row whose timestamp accounting does
// not match its batch size — gating on total errors would reject the
// crash mix's fault injection, whose whole point is provoking ErrDetached
// (counted as ExpectedErrors) while happens-before holds. The crash rows
// additionally must have abandoned at least one lease, or the injection
// silently did not run, and on a long-lived algorithm more leases than
// the object has pids: an abandoned lease pins its pid until the daemon
// reaps it, so that many abandons prove the reaper reclaimed leases.
// Namespace rows must partition their getTS ops across the provisioned
// namespaces, the storm mix must have provoked at least one quota
// rejection, and at least one row must have run multi-tenant. All rows
// land in one BENCH_smoke.json.
func runSmoke(ctx context.Context, out string, opt options) error {
	opt.workers = 4
	opt.rate = 0
	opt.duration = 2 * time.Second
	opt.warmup = 50 * time.Millisecond
	opt.maxOps = 1200
	opt.oneshotProcs = 2048

	algs := []string{"collect", "sqrt"}
	batchAlg := "collect" // the long-lived algorithm of the batch leg
	if opt.url != "" {
		// The external daemon's algorithm joins the roster, so the spawned
		// tsserved is exercised no matter what it serves. It is known
		// long-lived here (main refuses one-shot daemons for smoke), so the
		// batch legs run against it too.
		t, err := tsload.NewHTTP(ctx, opt.url, opt.hc)
		if err != nil {
			return err
		}
		algs = append(algs, t.Algorithm())
		sort.Strings(algs)
		algs = slices.Compact(algs)
		batchAlg = t.Algorithm()
	}

	var results []tsload.Result
	for _, mix := range tsload.Mixes() {
		rows, err := sweep(ctx, mix, algs, []string{"inproc", "http", "binary"}, []int{1}, opt)
		if err != nil {
			return err
		}
		results = append(results, rows...)
	}

	// Batch-size leg: the steady mix at 16 and 256 timestamps per op, in
	// process and over both wires (batch=1 is already covered above).
	steady, _ := tsload.LookupMix("steady")
	batchRows, err := sweep(ctx, steady, []string{batchAlg}, []string{"inproc", "http", "binary"}, []int{16, 256}, opt)
	if err != nil {
		return err
	}
	results = append(results, batchRows...)

	path, err := writeBench(out, "smoke", results)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(results))

	seen := map[string]bool{}
	crashRows, multiNSRows := 0, 0
	var stormRejections uint64
	for _, r := range results {
		if r.UnexpectedErrors > 0 {
			return fmt.Errorf("%s/%s/%s: %d unexpected op errors (%d expected)",
				r.Mix, r.Target, r.Algorithm, r.UnexpectedErrors, r.ExpectedErrors)
		}
		if r.HBViolations > 0 {
			return fmt.Errorf("%s/%s/%s: %d happens-before violations", r.Mix, r.Target, r.Algorithm, r.HBViolations)
		}
		if r.HBChecked == 0 {
			return fmt.Errorf("%s/%s/%s: the cross-worker happens-before check ordered no operation", r.Mix, r.Target, r.Algorithm)
		}
		if r.Space == nil {
			return fmt.Errorf("%s/%s/%s: no space section: every smoke target meters", r.Mix, r.Target, r.Algorithm)
		}
		if r.Mix == "crash" {
			crashRows++
			if r.Abandoned == 0 {
				return fmt.Errorf("%s/%s/%s: crash mix abandoned no leases — the fault injection did not run",
					r.Mix, r.Target, r.Algorithm)
			}
			if !isOneShot(r.Algorithm) && r.Abandoned <= uint64(r.Procs) {
				return fmt.Errorf("%s/%s/%s: %d leases abandoned on %d pids — the reaper reclaimed none",
					r.Mix, r.Target, r.Algorithm, r.Abandoned, r.Procs)
			}
		}
		if r.Namespaces > 0 {
			if r.Namespaces >= 2 {
				multiNSRows++
			}
			// Every measured getTS op ran against exactly one provisioned
			// namespace, so the per-namespace op counts must partition them.
			var nsOps uint64
			for _, v := range r.NamespaceOps {
				nsOps += v
			}
			if len(r.NamespaceOps) != r.Namespaces || nsOps != r.Ops {
				return fmt.Errorf("%s/%s/%s: namespace ops %v do not partition %d getTS ops",
					r.Mix, r.Target, r.Algorithm, r.NamespaceOps, r.Ops)
			}
		}
		if r.Mix == "storm" {
			stormRejections += r.ExpectedErrors
		}
		if r.Ops == 0 {
			return fmt.Errorf("%s/%s/%s: no measured ops", r.Mix, r.Target, r.Algorithm)
		}
		if r.LatencyNs.P50 > r.LatencyNs.P99 || r.LatencyNs.P99 > r.LatencyNs.P999 {
			return fmt.Errorf("%s/%s/%s: percentiles not monotone: %v", r.Mix, r.Target, r.Algorithm, r.LatencyNs)
		}
		// A measured getTS op only records after a full, error-free batch,
		// so the timestamp count must be exactly ops × batch.
		if r.Timestamps != r.Ops*uint64(r.BatchSize) {
			return fmt.Errorf("%s/%s/%s: %d timestamps from %d getTS ops at batch %d",
				r.Mix, r.Target, r.Algorithm, r.Timestamps, r.Ops, r.BatchSize)
		}
		seen[r.Target] = true
	}
	if !seen["inproc"] || !seen["http"] || !seen["binary"] {
		return fmt.Errorf("smoke must cover inproc, http and binary, saw %v", seen)
	}
	if crashRows == 0 {
		return fmt.Errorf("smoke ran no crash-mix rows")
	}
	if multiNSRows == 0 {
		return fmt.Errorf("smoke ran no multi-namespace rows")
	}
	if stormRejections == 0 {
		// Per-row counts are timing-dependent, but across the
		// self-hosted wire storm rows the 2-slot quota must have turned
		// at least one attach away.
		return fmt.Errorf("smoke attach storms provoked no quota rejections — the quota never bit")
	}
	return nil
}
