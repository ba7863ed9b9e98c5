package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"tsspace/tsserve"
)

// ledger gathers the traced run's wire-side layer numbers: server
// counters and the runtime sampled at every window boundary, the
// client spans, and the probes run after the wire phase.
type ledger struct {
	w   workload
	st  *stack
	c   *clock
	srv []srvSample // at window boundaries 0..nWin
	rt  []rtSample

	// Sums over the traced windows.
	ts, ops uint64
	durS    float64
	dSrv    srvSample
	dRT     rtSample
	client  [nKinds]spanAgg

	// Over the whole measure window.
	rejected, crashed, failed, rotations uint64

	echoUs, attachUs float64
}

func newLedger(w workload, st *stack, c *clock) *ledger {
	return &ledger{w: w, st: st, c: c,
		srv: make([]srvSample, 0, c.nWin+1), rt: make([]rtSample, 0, c.nWin+1)}
}

func (l *ledger) sample(int) {
	l.srv = append(l.srv, sampleServer(l.st))
	l.rt = append(l.rt, sampleRuntime())
}

// finish totals the traced windows, reports the tracing overhead, and
// runs the probes that need the live stack, spanned on probeTr.
func (l *ledger) finish(ctx context.Context, callers []*caller, probeTr *tracer, m map[string]metric) error {
	if len(l.srv) != l.c.nWin+1 {
		return fmt.Errorf("ledger: %d samples for %d windows", len(l.srv), l.c.nWin)
	}
	for win := 0; win < l.c.nWin; win++ {
		if !l.c.traced(win) {
			continue
		}
		for _, d := range callers {
			l.ts += d.wins[win].ts
			l.ops += d.wins[win].ops
		}
		l.durS += float64(l.c.winLen) / 1e9
		a, b := l.srv[win], l.srv[win+1]
		l.dSrv.hCount += b.hCount - a.hCount
		l.dSrv.hSumNs += b.hSumNs - a.hSumNs
		l.dSrv.frames += b.frames - a.frames
		l.dSrv.bytes += b.bytes - a.bytes
		ra, rb := l.rt[win], l.rt[win+1]
		l.dRT.cpu += rb.cpu - ra.cpu
		l.dRT.mallocs += rb.mallocs - ra.mallocs
		l.dRT.bytes += rb.bytes - ra.bytes
		l.dRT.gcs += rb.gcs - ra.gcs
		l.dRT.gcNs += rb.gcNs - ra.gcNs
	}
	first, last := l.srv[0], l.srv[l.c.nWin]
	l.rejected = last.rejected - first.rejected
	l.crashed = last.crashed - first.crashed
	for _, d := range callers {
		l.failed += d.failed
		for k := range l.client {
			l.client[k].n += d.tr.agg[k].n
			l.client[k].total += d.tr.agg[k].total
		}
	}
	if l.st.rot != nil {
		l.rotations = l.st.rot.gen
	}

	tTh, _, _ := windowStats(callers, l.c, l.c.traced)
	uTh, _, _ := windowStats(callers, l.c, func(win int) bool { return !l.c.traced(win) })
	m["trace.throughput_ts_per_s"] = metric{tTh, "1/s"}
	m["trace.untraced_throughput_ts_per_s"] = metric{uTh, "1/s"}
	m["trace.overhead_pct"] = metric{100 * (uTh - tTh) / uTh, "%"}

	// The echo carries a message the size of an average frame, each way.
	size := 16
	if l.dSrv.frames > 0 {
		size = max(size, int(l.dSrv.bytes/l.dSrv.frames/2))
	}
	var err error
	if l.echoUs, err = echoRTT(size, 300*time.Millisecond); err != nil {
		return fmt.Errorf("echo probe: %w", err)
	}
	if l.attachUs, err = l.attachProbe(ctx, 200); err != nil {
		return fmt.Errorf("attach probe: %w", err)
	}
	// Steady sessions attach once, in setup, on a fresh connection, so
	// their warm attach, the kind every one-shot operation makes, is
	// probed here on a pooled connection.
	if !l.w.oneShot {
		if err := binaryAttachProbe(ctx, l.st.bc, probeTr, 200); err != nil {
			return fmt.Errorf("binary attach probe: %w", err)
		}
	}
	if err := brokerProbe(ctx, l.w, l.st.ctl, probeTr, 5); err != nil {
		return fmt.Errorf("broker probe: %w", err)
	}
	// The probe tracer holds only attach, detach, provision and
	// deprovision spans, all on warm connections like the sessions' own.
	for k := range l.client {
		l.client[k].n += probeTr.agg[k].n
		l.client[k].total += probeTr.agg[k].total
	}
	return nil
}

// duty returns the share of the measure window each session spent inside
// the server's getTS handler: how much of the time two sessions' getTS
// calls could overlap on the wire. The replays pace to it.
func (l *ledger) duty() float64 {
	busyNs := l.srv[l.c.nWin].hSumNs - l.srv[0].hSumNs
	return min(1, busyNs/(float64(l.c.nWin)*float64(l.c.winLen)*float64(l.w.sessions)))
}

// binaryAttachProbe times n binary attach/detach pairs on the default
// namespace, spanned on tr. The pair before them, which may dial, is
// not timed.
func binaryAttachProbe(ctx context.Context, bc *tsserve.BinaryClient, tr *tracer, n int) error {
	for i := 0; i <= n; i++ {
		a := tr.now()
		s, err := bc.Attach(ctx)
		b := tr.now()
		if err != nil {
			return err
		}
		if err := s.Detach(); err != nil {
			return err
		}
		if i > 0 {
			tr.span(kAttach, a, b)
			tr.span(kDetach, b, tr.now())
		}
	}
	return nil
}

// attachProbe times n HTTP attach/detach pairs on the default namespace
// and returns the server's mean attach handler time from its histogram.
// The binary listener does not time attaches, so every workload reads
// the server's attach cost here.
func (l *ledger) attachProbe(ctx context.Context, n int) (float64, error) {
	before := sampleServer(l.st)
	for i := 0; i < n; i++ {
		s, err := l.st.ctl.Attach(ctx)
		if err != nil {
			return 0, err
		}
		if err := s.Detach(); err != nil {
			return 0, err
		}
	}
	after := sampleServer(l.st)
	if after.aCount == before.aCount {
		return 0, fmt.Errorf("attach histogram did not move")
	}
	return (after.aSumNs - before.aSumNs) / float64(after.aCount-before.aCount) / 1e3, nil
}

// brokerProbe provisions and deprovisions n namespaces shaped like the
// workload's, spanned on tr, so every workload reports broker costs.
func brokerProbe(ctx context.Context, w workload, ctl *tsserve.Client, tr *tracer, n int) error {
	req := tsserve.ProvisionRequest{Algorithm: targetAlg(w), Procs: targetProcs(w)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("probe-%d", i)
		a := tr.now()
		_, err := ctl.ProvisionNamespace(ctx, name, req)
		tr.span(kProvision, a, tr.now())
		if err != nil {
			return err
		}
		a = tr.now()
		_, err = ctl.DeprovisionNamespace(ctx, name)
		tr.span(kDeprovision, a, tr.now())
		if err != nil {
			return err
		}
	}
	return nil
}

// echoRTT returns the mean round trip of a size-byte message echoed over
// one loopback TCP connection for about d: the network and wake-up floor
// under every wire operation.
func echoRTT(size int, d time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	out, in := make([]byte, size), make([]byte, size)
	var n int
	var total time.Duration
	end := time.Now().Add(d)
	for n < 100 || time.Now().Before(end) {
		t0 := time.Now()
		if _, err = c.Write(out); err != nil {
			break
		}
		if _, err = io.ReadFull(c, in); err != nil {
			break
		}
		total += time.Since(t0)
		n++
	}
	c.Close()
	<-done
	if err != nil {
		return 0, err
	}
	return float64(total.Nanoseconds()) / float64(n) / 1e3, nil
}

// derive writes the wire-side per-layer metrics; the replay metrics
// must already be in m.
func (l *ledger) derive(m map[string]metric) {
	perTS := func(v float64) float64 {
		if l.ts == 0 {
			return 0
		}
		return v / float64(l.ts)
	}
	handlerUs := 0.0
	if l.dSrv.hCount > 0 {
		handlerUs = l.dSrv.hSumNs / float64(l.dSrv.hCount) / 1e3
	}
	tsPerFrame := float64(l.w.batch)
	clientUs := l.client[kGetTS].meanUs()

	m["client.getts_us"] = metric{clientUs, "us"}
	m["client.attach_us"] = metric{l.client[kAttach].meanUs(), "us"}
	m["client.detach_us"] = metric{l.client[kDetach].meanUs(), "us"}
	m["client.ops"] = metric{float64(l.ops), "count"}
	m["client.failed"] = metric{float64(l.failed), "count"}

	sdkNs := m["tsspace.getts_ns"].Value
	m["server.handler_us"] = metric{handlerUs, "us"}
	m["server.handler_ops"] = metric{float64(l.dSrv.hCount), "count"}
	m["server.dispatch_us"] = metric{handlerUs - sdkNs*tsPerFrame/1e3, "us"}
	m["server.attach_us"] = metric{l.attachUs, "us"}
	m["server.frames_per_ts"] = metric{perTS(float64(l.dSrv.frames)), "count"}
	m["server.bytes_per_ts"] = metric{perTS(float64(l.dSrv.bytes)), "B"}
	m["server.rejected"] = metric{float64(l.rejected), "count"}
	m["server.crash_reclaimed"] = metric{float64(l.crashed), "count"}

	residual := clientUs - handlerUs - l.echoUs
	m["net.echo_rtt_us"] = metric{l.echoUs, "us"}
	m["net.residual_us"] = metric{residual, "us"}
	m["ledger.residual_pct"] = metric{100 * residual / clientUs, "%"}

	// Per timestamp, each layer contains the one below it. Layers that
	// add almost nothing (the session guard at batch 256) measure equal
	// within noise, so the check allows orderTolerance.
	const orderTolerance = 0.05
	chain := []struct {
		name string
		ns   float64
	}{
		{"server.handler", handlerUs * 1e3 / tsPerFrame},
		{"tsspace.getts", sdkNs},
		{"register.metered_getts", m["register.metered_getts_ns"].Value},
		{"timestamp.getts", m["timestamp.getts_ns"].Value},
	}
	ok := 1.0
	for i := 1; i < len(chain); i++ {
		if chain[i-1].ns < chain[i].ns*(1-orderTolerance) {
			ok = 0
			fmt.Printf("ledger: %s %.1f ns/ts < %s %.1f ns/ts\n", chain[i-1].name, chain[i-1].ns, chain[i].name, chain[i].ns)
		}
	}
	m["ledger.order_ok"] = metric{ok, "bool"}

	m["broker.provision_ms"] = metric{l.client[kProvision].meanUs() / 1e3, "ms"}
	m["broker.deprovision_ms"] = metric{l.client[kDeprovision].meanUs() / 1e3, "ms"}
	m["broker.namespaces"] = metric{float64(l.rotations), "count"}

	cpuUs := float64(l.dRT.cpu) / 1e3
	m["runtime.cpu_us_per_ts"] = metric{perTS(cpuUs), "us"}
	m["runtime.cpu_util"] = metric{cpuUs / 1e6 / l.durS / float64(runtime.GOMAXPROCS(0)), "ratio"}
	m["runtime.allocs_per_ts"] = metric{perTS(float64(l.dRT.mallocs)), "count"}
	m["runtime.bytes_per_ts"] = metric{perTS(float64(l.dRT.bytes)), "B"}
	m["runtime.gc_per_s"] = metric{float64(l.dRT.gcs) / l.durS, "1/s"}
	m["runtime.gc_pause_us_per_s"] = metric{float64(l.dRT.gcNs) / 1e3 / l.durS, "us/s"}
}
