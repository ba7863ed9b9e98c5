// Command tsserved serves a tsspace timestamp object over HTTP/JSON: the
// paper's getTS() as a network service, with compare(t1, t2) left to the
// client as the local tsspace.Less (it reads no register). Logical clients
// need no process ids, sequence numbers or shared memory — they lease a
// session and get back batches of timestamps on it; the daemon's SDK
// object maps any number of concurrent sessions onto the configured n
// paper-processes through session leasing.
//
// Every object the daemon serves is a namespace, its own object being
// "default", and every namespace meters its register space, so the
// paper's space measure is always on both /metrics views. Endpoints:
// wire v2 sessions (POST /ns/{name}/session,
// POST /ns/{name}/session/{id}/getts, DELETE /ns/{name}/session/{id}),
// GET /healthz (the default namespace's; /ns/{name}/healthz for any),
// GET /metrics (per-namespace space and calls, wire counters),
// GET /metrics/prometheus (the same registry in text exposition format).
// The namespace broker rides on top: GET /catalog lists the servable
// algorithms and PUT/DELETE /ns/{name} provision and deprovision named
// Objects — one daemon, many isolated timestamp services (see
// tsspace/tsserve).
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
//	         [-alg collect] [-procs 64]
//	         [-maxbatch 1024] [-session-ttl 60s]
//	tsserved -algs                 list the servable algorithms
//
// TestCLITsserved (tsserved_test.go, in the module root) builds this
// command, spawns it, and drives both wires, the reaper, the flight
// recorder, the Prometheus exposition and the SIGTERM drain end to end.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tsspace"
	"tsspace/tsserve"
)

func main() {
	addr := flag.String("addr", ":8037", "listen address")
	binAddr := flag.String("binary-addr", "", "wire-v3 binary listen address (e.g. :8038); empty serves HTTP only")
	debugAddr := flag.String("debug-addr", "", "debug listen address (e.g. 127.0.0.1:8039) serving net/http/pprof, expvar, and GET /debug/events (flight-recorder dump); empty disables")
	alg := flag.String("alg", "collect", "algorithm: one of "+strings.Join(tsspace.Algorithms(), " | "))
	procs := flag.Int("procs", 64, "paper-processes n: the object's concurrency level (and, for one-shot algorithms, the total timestamp budget)")
	maxBatch := flag.Int("maxbatch", 1024, "largest getts batch")
	sessionTTL := flag.Duration("session-ttl", 60*time.Second, "idle time before a wire session's lease is reaped and its pid recycled")
	algs := flag.Bool("algs", false, "list the servable algorithms and exit")
	flag.Parse()

	if *algs {
		for _, e := range tsspace.Catalog() {
			fmt.Printf("%-10s %s\n", e.Name, e.Summary)
		}
		return
	}

	obj, err := tsspace.New(tsspace.WithAlgorithm(*alg), tsspace.WithProcs(*procs), tsspace.WithMetering())
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
