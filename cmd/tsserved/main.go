// Command tsserved serves a tsspace timestamp object over HTTP/JSON: the
// paper's getTS() as a network service, with compare(t1, t2) left to the
// client as the local tsspace.Less (it reads no register). Logical clients
// need no process ids, sequence numbers or shared memory — they lease a
// session and get back batches of timestamps on it; the daemon's SDK
// object maps any number of concurrent sessions onto the configured n
// paper-processes through session leasing.
//
// Endpoints: wire v2 sessions (POST /session, POST /session/{id}/getts,
// DELETE /session/{id}), GET /healthz, GET /metrics (space
// report + throughput), GET /metrics/prometheus (the same registry in
// text exposition format).
// The namespace broker rides on top: GET /catalog lists the servable
// algorithms, PUT/DELETE /ns/{name} provision and deprovision named
// Objects, and every session endpoint replicates under /ns/{name}/... —
// one daemon, many isolated timestamp services (see tsspace/tsserve).
// With -binary-addr the daemon additionally serves wire v3 — the same
// session space over a persistent-connection binary protocol. With
// -debug-addr it serves an operator-only debug listener: net/http/pprof,
// expvar, and GET /debug/events, the flight recorder's JSON-lines dump
// of recent attach/detach/reap/crash/error/slow-op events. See
// tsspace/tsserve.
//
// Usage:
//
//	tsserved [-addr :8037] [-binary-addr :8038] [-debug-addr 127.0.0.1:8039]
//	         [-alg collect] [-procs 64] [-unmetered]
//	         [-maxbatch 1024] [-session-ttl 60s]
//	tsserved -algs                 list the servable algorithms
//	tsserved -smoke URL            run the end-to-end smoke check against
//	                               a running daemon and exit 0/1; with
//	                               -smoke-binary HOST:PORT the check also
//	                               drives the daemon's binary listener
//
// The smoke mode is the CI gate: it leases a wire-v2 session, pipelines
// batches on it, checks the happens-before order across them locally with
// tsspace.Less (both directions, every pair), and checks /metrics counted
// the traffic. Against a one-shot daemon each timestamp is a lease of its
// own, which ends with its getTS: the daemon retires it before
// answering, so the client's detach is local, and the smoke checks
// /metrics shows the first lease gone before that detach.
// The binary leg leases a wire-v3 session the same way and asserts its
// timestamps order against the HTTP-issued stream — cross-transport
// happens-before on one shared object. The namespace leg provisions two
// namespaces through the broker, binds into them over both transports,
// and asserts register isolation, namespace-labeled metrics in both
// /metrics views, and typed quota/unknown-namespace errors.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"tsspace"
	"tsspace/internal/obs"
	"tsspace/tsserve"
)

func main() {
	addr := flag.String("addr", ":8037", "listen address")
	binAddr := flag.String("binary-addr", "", "wire-v3 binary listen address (e.g. :8038); empty serves HTTP only")
	debugAddr := flag.String("debug-addr", "", "debug listen address (e.g. 127.0.0.1:8039) serving net/http/pprof, expvar, and GET /debug/events (flight-recorder dump); empty disables")
	alg := flag.String("alg", "collect", "algorithm: one of "+strings.Join(tsspace.Algorithms(), " | "))
	procs := flag.Int("procs", 64, "paper-processes n: the object's concurrency level (and, for one-shot algorithms, the total timestamp budget)")
	unmetered := flag.Bool("unmetered", false, "drop space metering from the register path (disables the /metrics space section)")
	maxBatch := flag.Int("maxbatch", 1024, "largest getts batch")
	sessionTTL := flag.Duration("session-ttl", 60*time.Second, "idle time before a wire session's lease is reaped and its pid recycled")
	algs := flag.Bool("algs", false, "list the servable algorithms and exit")
	smoke := flag.String("smoke", "", "run the smoke check against the daemon at this URL and exit")
	smokeBin := flag.String("smoke-binary", "", "with -smoke: also drive the daemon's binary listener at this host:port")
	flag.Parse()

	if *algs {
		for _, e := range tsspace.Catalog() {
			fmt.Printf("%-10s %s\n", e.Name, e.Summary)
		}
		return
	}
	if *smoke != "" {
		if err := runSmoke(*smoke, *smokeBin); err != nil {
			fmt.Fprintf(os.Stderr, "tsserved: smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("tsserved smoke ok")
		return
	}
	if *smokeBin != "" {
		fmt.Fprintln(os.Stderr, "tsserved: -smoke-binary is a smoke-mode flag; pass -smoke URL too")
		os.Exit(2)
	}

	opts := []tsspace.Option{tsspace.WithAlgorithm(*alg), tsspace.WithProcs(*procs)}
	if !*unmetered {
		opts = append(opts, tsspace.WithMetering())
	}
	obj, err := tsspace.New(opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsserved: %v\n", err)
		os.Exit(2)
	}
	defer obj.Close()

	front := tsserve.NewServer(obj, tsserve.ServerConfig{MaxBatch: *maxBatch, SessionTTL: *sessionTTL})
	defer front.Close()
	srv := &http.Server{
		Addr:    *addr,
		Handler: front,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	kind := "long-lived"
	if obj.OneShot() {
		kind = "one-shot"
	}
	log.Printf("tsserved: serving %s (%s) on %s: n=%d processes, %d registers",
		obj.Algorithm(), kind, *addr, obj.Procs(), obj.Registers())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	// The debug surface lives on its own listener (bind it to loopback:
	// pprof and the flight recorder are operator tools, not service API)
	// and rides through the drain: it stays up while in-flight requests
	// finish — exactly when /debug/events is most interesting — and is
	// closed after the main listener has drained. A second signal still
	// kills the process immediately via the restored default handler.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		dmux.Handle("GET /debug/events", front.EventsHandler())
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dmux}
		log.Printf("tsserved: debug listener (pprof, expvar, /debug/events) on %s", *debugAddr)
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errCh <- fmt.Errorf("debug listener: %w", err)
			}
		}()
	}

	if *binAddr != "" {
		ln, err := net.Listen("tcp", *binAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsserved: binary listener: %v\n", err)
			os.Exit(1)
		}
		log.Printf("tsserved: wire-v3 binary listener on %s", ln.Addr())
		go func() {
			if err := front.ServeBinary(ln); err != nil {
				errCh <- fmt.Errorf("binary listener: %w", err)
			}
		}()
	}

	select {
	case err := <-errCh:
		// The listener died on its own (bad address, port taken).
		fmt.Fprintf(os.Stderr, "tsserved: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
		// SIGINT/SIGTERM: stop accepting, drain in-flight batches (a getts
		// batch keeps its session leased until the last timestamp is
		// issued), then exit cleanly so load runs against a local daemon
		// always end with complete responses.
		stop() // a second signal kills immediately
		log.Printf("tsserved: signal received, draining in-flight requests (%s timeout)", shutdownTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("tsserved: drain incomplete: %v", err)
			_ = srv.Close()
			if debugSrv != nil {
				_ = debugSrv.Close()
			}
			os.Exit(1)
		}
		<-errCh // ListenAndServe has returned http.ErrServerClosed
		if debugSrv != nil {
			// The debug surface outlives the drain so a stuck drain can be
			// profiled; once the main listener is down, close it too.
			_ = debugSrv.Close()
		}
		log.Printf("tsserved: drained, bye")
	}
}

// shutdownTimeout bounds the drain: in-flight requests get this long to
// complete before the daemon gives up and closes their connections.
const shutdownTimeout = 5 * time.Second

// runSmoke drives a wire-v2 session (two pipelined batches on one lease)
// through a running daemon and checks the happens-before property across
// the whole stream locally, every pair in both directions. With binAddr
// it appends a wire-v3 leg: a binary
// session's batch must order after every HTTP-issued timestamp, and the
// /metrics binary counters must have moved — the two transports
// demonstrably share one object.
func runSmoke(url, binAddr string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := tsserve.NewClient(url, nil)

	h, err := c.Health(ctx)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("healthz status %q", h.Status)
	}

	// One-shot objects issue one timestamp per lease; take the stream as
	// separate attach, getTS, detach rounds then — each completed round
	// happens-before the next. The getTS ends the lease (the daemon
	// retires it before answering), so the detach sends nothing; the
	// first round checks /metrics between the two. Their budget is n
	// total timestamps, so cap the smoke stream at what the daemon has
	// left (the metrics report how many calls it already served).
	want := 8
	var batch []tsspace.Timestamp
	if h.OneShot && binAddr != "" {
		return fmt.Errorf("-smoke-binary needs a long-lived daemon (the one-shot smoke stream has no budget for a binary leg)")
	}
	if h.OneShot {
		m, err := c.Metrics(ctx)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if remaining := h.Procs - int(m.Calls); remaining < want {
			want = remaining
		}
		if want < 2 {
			return fmt.Errorf("one-shot budget nearly spent (%d of %d calls served): too few timestamps left to order", m.Calls, h.Procs)
		}
		for i := 0; i < want; i++ {
			sess, err := c.Attach(ctx)
			if err != nil {
				return fmt.Errorf("attach %d: %w", i, err)
			}
			ts, err := sess.GetTS(ctx)
			if err != nil {
				return fmt.Errorf("getts %d: %w", i, err)
			}
			if i == 0 {
				m, err := c.Metrics(ctx)
				if err != nil {
					return fmt.Errorf("metrics: %w", err)
				}
				if m.WireSessions != 0 {
					return fmt.Errorf("one-shot lease still live after its getTS: %d wire sessions, want 0", m.WireSessions)
				}
			}
			if err := sess.Detach(); err != nil {
				return fmt.Errorf("detach %d: %w", i, err)
			}
			batch = append(batch, ts)
		}
	} else {
		// Wire v2: one lease, two pipelined batches (ordered within and
		// across batches), explicit detach.
		sess, err := c.Attach(ctx)
		if err != nil {
			return fmt.Errorf("session attach: %w", err)
		}
		buf := make([]tsspace.Timestamp, want/2)
		for b := 0; b < 2; b++ {
			n, err := sess.GetTSBatch(ctx, buf)
			if err != nil {
				return fmt.Errorf("session batch %d: %w", b, err)
			}
			batch = append(batch, buf[:n]...)
		}
		if err := sess.Detach(); err != nil {
			return fmt.Errorf("session detach: %w", err)
		}
		if _, err := sess.GetTS(ctx); !errors.Is(err, tsspace.ErrDetached) {
			return fmt.Errorf("getts on a detached session = %v, want ErrDetached", err)
		}

		// Wire-v3 leg: a binary session's batch must order after every
		// timestamp issued over HTTP — both transports lease from one object.
		if binAddr != "" {
			bc := tsserve.NewBinaryClient(binAddr)
			defer bc.Close()
			bs, err := bc.Attach(ctx)
			if err != nil {
				return fmt.Errorf("binary attach at %s: %w", binAddr, err)
			}
			n, err := bs.GetTSBatch(ctx, buf)
			if err != nil {
				return fmt.Errorf("binary batch: %w", err)
			}
			batch = append(batch, buf[:n]...)
			want += n
			if err := bs.Detach(); err != nil {
				return fmt.Errorf("binary detach: %w", err)
			}
			if _, err := bs.GetTS(ctx); !errors.Is(err, tsspace.ErrDetached) {
				return fmt.Errorf("binary getts on a detached session = %v, want ErrDetached", err)
			}
		}

		// Namespace broker leg: catalog → provision → bind → getts →
		// deprovision, over both transports, with isolation and typed-error
		// checks along the way.
		if err := smokeNamespaces(ctx, c, binAddr); err != nil {
			return fmt.Errorf("namespace leg: %w", err)
		}
	}
	if len(batch) != want {
		return fmt.Errorf("got %d timestamps, want %d", len(batch), want)
	}

	// Every pair, both directions: i < j must order before, never after.
	for i := 0; i < len(batch); i++ {
		for j := i + 1; j < len(batch); j++ {
			before, after := tsspace.Less(batch[i], batch[j]), tsspace.Less(batch[j], batch[i])
			if !before || after {
				return fmt.Errorf("happens-before violated: ts[%d]=%v vs ts[%d]=%v (before=%v after=%v)",
					i, batch[i], j, batch[j], before, after)
			}
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if int(m.Calls) < want {
		return fmt.Errorf("metrics counted %d calls, want ≥ %d", m.Calls, want)
	}
	if binAddr != "" {
		if m.BinaryFrames == 0 || m.BinaryBytesIn == 0 || m.BinaryBytesOut == 0 {
			return fmt.Errorf("binary leg ran but /metrics counted no binary traffic: frames=%d in=%d out=%d",
				m.BinaryFrames, m.BinaryBytesIn, m.BinaryBytesOut)
		}
		fmt.Printf("smoke: wire-v3 leg ok: %d frames, %d bytes in, %d bytes out\n",
			m.BinaryFrames, m.BinaryBytesIn, m.BinaryBytesOut)
	}
	if err := checkPrometheus(ctx, url); err != nil {
		return fmt.Errorf("prometheus exposition: %w", err)
	}
	fmt.Printf("smoke: %s n=%d: %d timestamps strictly ordered (%d pairs checked locally); %d calls served\n",
		h.Algorithm, h.Procs, len(batch), len(batch)*(len(batch)-1)/2, m.Calls)
	return nil
}

// smokeNamespaces drives the broker lifecycle end to end: the catalog
// must mirror the SDK registry; two namespaces are provisioned (one
// with a 2-session quota), bound into over HTTP — and over wire v3 when
// a binary address is given — and driven; both /metrics views must
// report them with isolated per-namespace counters; typed errors must
// come back for quota exhaustion, unknown namespaces and double
// deprovision.
func smokeNamespaces(ctx context.Context, c *tsserve.Client, binAddr string) error {
	// Catalog ≡ registry: same names, same order.
	catalog, err := c.Catalog(ctx)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.Name
	}
	if want := tsspace.Algorithms(); !slices.Equal(names, want) {
		return fmt.Errorf("catalog lists %v, registry has %v", names, want)
	}

	const nsA, nsB = "smoke-a", "smoke-b"
	for _, ns := range []string{nsA, nsB} { // clean slate on a reused daemon
		if _, err := c.DeprovisionNamespace(ctx, ns); err != nil && !errors.Is(err, tsserve.ErrUnknownNamespace) {
			return fmt.Errorf("pre-clean %s: %w", ns, err)
		}
	}
	if _, err := c.ProvisionNamespace(ctx, nsA, tsserve.ProvisionRequest{Procs: 8, MaxSessions: 2}); err != nil {
		return fmt.Errorf("provision %s: %w", nsA, err)
	}
	if _, err := c.ProvisionNamespace(ctx, nsB, tsserve.ProvisionRequest{Procs: 8}); err != nil {
		return fmt.Errorf("provision %s: %w", nsB, err)
	}

	// HTTP bind into smoke-a: namespace-scoped attach, a batch, and the
	// scoped health report.
	ca := c.Namespace(nsA)
	if h, err := ca.Health(ctx); err != nil || h.Namespace != nsA {
		return fmt.Errorf("scoped healthz = (%+v, %v), want namespace %q", h, err, nsA)
	}
	sa, err := ca.Attach(ctx)
	if err != nil {
		return fmt.Errorf("attach %s: %w", nsA, err)
	}
	buf := make([]tsspace.Timestamp, 4)
	if _, err := sa.GetTSBatch(ctx, buf); err != nil {
		return fmt.Errorf("getts in %s: %w", nsA, err)
	}
	// Quota: the second lease fits, the third must answer the typed
	// quota error.
	sa2, err := ca.Attach(ctx)
	if err != nil {
		return fmt.Errorf("second attach in %s: %w", nsA, err)
	}
	if _, err := ca.Attach(ctx); !errors.Is(err, tsserve.ErrQuota) {
		return fmt.Errorf("third attach in quota-2 %s = %v, want ErrQuota", nsA, err)
	}
	if err := sa2.Detach(); err != nil {
		return fmt.Errorf("detach in %s: %w", nsA, err)
	}

	// Bind into smoke-b over wire v3 when the listener is up (the
	// attach_ns frame), over HTTP otherwise.
	var sb tsspace.SessionAPI
	if binAddr != "" {
		bc := tsserve.NewBinaryClient(binAddr)
		defer bc.Close()
		if sb, err = bc.AttachNamespace(ctx, nsB); err != nil {
			return fmt.Errorf("binary attach_ns %s: %w", nsB, err)
		}
		if _, err := bc.AttachNamespace(ctx, "smoke-missing"); !errors.Is(err, tsserve.ErrUnknownNamespace) {
			return fmt.Errorf("binary attach_ns to unknown namespace = %v, want ErrUnknownNamespace", err)
		}
	} else if sb, err = c.Namespace(nsB).Attach(ctx); err != nil {
		return fmt.Errorf("attach %s: %w", nsB, err)
	}
	if _, err := sb.GetTSBatch(ctx, buf[:2]); err != nil {
		return fmt.Errorf("getts in %s: %w", nsB, err)
	}

	// Unknown namespace over HTTP: typed error plus its own counter.
	if _, err := c.Namespace("smoke-missing").Attach(ctx); !errors.Is(err, tsserve.ErrUnknownNamespace) {
		return fmt.Errorf("attach to unknown namespace = %v, want ErrUnknownNamespace", err)
	}

	// Both /metrics views must report the namespaces, isolated: JSON
	// first.
	m, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if m.UnknownNamespaces == 0 {
		return fmt.Errorf("unknown-namespace rejections not counted")
	}
	byName := make(map[string]tsserve.NamespaceMetrics, len(m.Namespaces))
	for _, nm := range m.Namespaces {
		byName[nm.Name] = nm
	}
	ma, okA := byName[nsA]
	mb, okB := byName[nsB]
	if !okA || !okB {
		return fmt.Errorf("metrics namespaces section %v missing %s or %s", m.Namespaces, nsA, nsB)
	}
	if ma.Calls != 4 || mb.Calls != 2 {
		return fmt.Errorf("per-namespace calls (%d, %d), want (4, 2) — cross-namespace bleed?", ma.Calls, mb.Calls)
	}
	if ma.QuotaRejections != 1 || ma.MaxSessions != 2 {
		return fmt.Errorf("%s quota book = %d rejections / cap %d, want 1 / 2", nsA, ma.QuotaRejections, ma.MaxSessions)
	}
	// Isolation shows in the op counters: the two namespaces took a
	// different number of calls, so a meter shared between them would
	// report identical read/write totals under both names.
	if ma.Space == nil || mb.Space == nil || ma.Space.Written == 0 ||
		(ma.Space.Reads == mb.Space.Reads && ma.Space.Writes == mb.Space.Writes) {
		return fmt.Errorf("per-namespace space gauges missing or shared: %v vs %v", ma.Space, mb.Space)
	}

	// Prometheus view, scraped while the namespaces are live: the
	// register-space family must carry their labels.
	if err := checkNamespaceLabels(ctx, c.BaseURL(), nsA, nsB); err != nil {
		return err
	}

	// Session-scoped routes enforce the binding: smoke-a's live lease
	// must be invisible through smoke-b's routes (capability ids are
	// namespace-checked on HTTP).
	crossReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL()+"/ns/"+nsB+"/session/"+sa.ID()+"/getts", strings.NewReader(`{"count":1}`))
	if err != nil {
		return err
	}
	crossReq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(crossReq)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("cross-namespace getts = %d, want 404 (session leaked across namespaces)", resp.StatusCode)
	}

	// Teardown: deprovision releases smoke-a's still-live lease;
	// deprovisioning again answers the typed unknown-namespace error.
	if err := sb.Detach(); err != nil {
		return fmt.Errorf("detach in %s: %w", nsB, err)
	}
	depA, err := c.DeprovisionNamespace(ctx, nsA)
	if err != nil {
		return fmt.Errorf("deprovision %s: %w", nsA, err)
	}
	if depA.ReleasedSessions != 1 {
		return fmt.Errorf("deprovision %s released %d sessions, want 1 (the undetached lease)", nsA, depA.ReleasedSessions)
	}
	if _, err := c.DeprovisionNamespace(ctx, nsB); err != nil {
		return fmt.Errorf("deprovision %s: %w", nsB, err)
	}
	if _, err := c.DeprovisionNamespace(ctx, nsA); !errors.Is(err, tsserve.ErrUnknownNamespace) {
		return fmt.Errorf("double deprovision = %v, want ErrUnknownNamespace", err)
	}
	// The scoped route resolves the namespace before the lease, so an op
	// on a deprovisioned namespace's (force-released) session reports the
	// namespace as unknown — strictly more informative than a bare
	// unknown-session.
	if _, err := sa.GetTS(ctx); !errors.Is(err, tsserve.ErrUnknownNamespace) {
		return fmt.Errorf("getts on a deprovisioned namespace's lease = %v, want ErrUnknownNamespace", err)
	}
	fmt.Printf("smoke: namespace leg ok: catalog %d algorithms; %s and %s provisioned, isolated (%d+%d calls), quota and unknown-namespace errors typed\n",
		len(catalog), nsA, nsB, ma.Calls, mb.Calls)
	return nil
}

// checkNamespaceLabels scrapes the exposition and asserts the
// namespace-labeled series are present for both live namespaces.
func checkNamespaceLabels(ctx context.Context, url string, nss ...string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(url, "/")+"/metrics/prometheus", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	families, err := obs.ParseExposition(body)
	if err != nil {
		return fmt.Errorf("malformed exposition: %w", err)
	}
	for _, fam := range []string{"tsspace_registers_used", "tsserve_ns_sessions", "tsserve_ns_calls_total"} {
		f, ok := families[fam]
		if !ok {
			return fmt.Errorf("family %s missing while namespaces live", fam)
		}
		for _, ns := range nss {
			if !slices.Contains(f.Labels, `namespace="`+ns+`"`) {
				return fmt.Errorf("family %s has no namespace=%q sample (labels: %v)", fam, ns, f.Labels)
			}
		}
	}
	return nil
}

// requiredFamilies are the metric families every daemon must expose on
// GET /metrics/prometheus; the smoke (and so CI) fails when one is
// missing or the exposition is malformed.
var requiredFamilies = []string{
	"tsserve_calls_total",
	"tsserve_attaches_total",
	"tsserve_batches_total",
	"tsserve_active_sessions",
	"tsserve_wire_sessions",
	"tsserve_uptime_seconds",
	"tsserve_getts_latency_ns",
	"tsserve_ns_sessions",
	"tsserve_unknown_namespaces_total",
	"tsspace_registers_total",
}

// checkPrometheus scrapes GET /metrics/prometheus and validates it: the
// exposition must parse strictly (obs.ParseExposition enforces the
// metric-name charset, HELP/TYPE placement and cumulative histogram
// buckets), and every required family must be present.
func checkPrometheus(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(url, "/")+"/metrics/prometheus", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	families, err := obs.ParseExposition(body)
	if err != nil {
		return fmt.Errorf("malformed: %w", err)
	}
	for _, name := range requiredFamilies {
		if _, ok := families[name]; !ok {
			return fmt.Errorf("required family %s missing (got %d families)", name, len(families))
		}
	}
	if calls := families["tsserve_calls_total"]; calls.Samples != 1 {
		return fmt.Errorf("tsserve_calls_total has %d samples, want 1", calls.Samples)
	}
	fmt.Printf("smoke: prometheus exposition ok: %d families, %d required present\n",
		len(families), len(requiredFamilies))
	return nil
}
