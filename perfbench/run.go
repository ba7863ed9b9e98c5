package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// setups is how many times a run builds the stack; setup_s is their
// median, so one slow connect or page-fault burst does not decide it.
const setups = 101

// setupIdle is how long the process idles before each timed setup, so
// every setup starts, as a daemon does, on CPUs that have gone quiet
// rather than right behind the previous teardown and collection. Timed
// back to back, the setups' median varied from run to run more than the
// run's throughput did.
const setupIdle = 2 * time.Millisecond

// warmUp runs the workload unmeasured so connections, caches and the
// GC pacer settle before the first window.
const warmUp = time.Second

type bench struct {
	w       workload
	seed    uint64
	seconds int
	traced  bool
}

func (b *bench) run() (result, error) {
	// The benchmark must end on its own; a hang is a failed run.
	deadline := time.Duration(b.seconds)*time.Second + 150*time.Second
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v; giving up\n", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	epoch := time.Now()
	// Setup and teardown calls are cold (fresh connections and
	// transports), so they are spanned apart from the ledger's warm calls.
	setupTr := newTracer("setup", epoch, b.traced)
	setupTr.on = b.traced
	probeTr := newTracer("probe", epoch, b.traced)
	probeTr.on = b.traced

	var setupS []float64
	var st *stack
	for i := 0; i < setups; i++ {
		// Each setup starts from a collected heap, as in a fresh process,
		// instead of paying for the garbage of the setups before it.
		runtime.GC()
		time.Sleep(setupIdle)
		t0 := time.Now()
		s, err := setup(ctx, b.w, b.seed, setupTr)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i == setups-1 {
			st = s
			break
		}
		if err := s.close(setupTr); err != nil {
			return result{}, fmt.Errorf("teardown: %w", err)
		}
	}

	// The wire phase: the whole measure window untraced, or half of it
	// in alternating traced and untraced windows.
	c := &clock{winLen: int64(time.Second), nWin: b.seconds}
	if b.traced {
		c.nWin = max(4, b.seconds&^1)
		c.winLen = int64(time.Duration(b.seconds) * time.Second / 2 / time.Duration(c.nWin))
		c.traced = func(win int) bool { return win%2 == 0 }
	}
	callers := make([]*caller, b.w.sessions)
	var bd *board
	if b.w.sessions > 1 {
		bd = &board{last: make([]stamp, b.w.sessions), set: make([]bool, b.w.sessions)}
	}
	for i := range callers {
		callers[i] = newCaller(i, b.w, st, newTracer(fmt.Sprintf("session%d", i), epoch, b.traced), bd, b.seed, c.nWin)
	}
	var lg *ledger
	var sample func(int)
	if b.traced {
		lg = newLedger(b.w, st, c)
		sample = lg.sample
	}
	runWire(ctx, callers, c, warmUp, epoch, sample)

	res := result{Correct: true, Metrics: map[string]metric{}}
	var violations, compared uint64
	for _, d := range callers {
		res.Attempted += d.attempted
		res.Failed += d.failed
		violations += d.chk.violations
		compared += d.chk.compared
		if d.err != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: session %d: unexpected failure: %v\n", d.idx, d.err)
		}
		if d.chk.violations > 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: session %d: %d happens-before violations; first: %s\n", d.idx, d.chk.violations, d.chk.first)
		}
	}
	written, regs, err := registersWritten(ctx, b.w, st)
	if err != nil {
		return result{}, err
	}
	if written < 1 || written > regs {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d registers written of %d allocated\n", written, regs)
	}
	fmt.Printf("check hb_pairs_compared=%d hb_violations=%d unexpected_failures=%d registers_written=%d/%d",
		compared, violations, res.Failed, written, regs)
	if st.rot != nil {
		var exhausted uint64
		for _, d := range callers {
			exhausted += d.exhausted
		}
		fmt.Printf(" namespaces_exhausted=%d exhausted_attaches=%d (expected, not failures)", st.rot.retired, exhausted)
	}
	fmt.Println()

	if b.traced {
		if err := lg.finish(ctx, callers, probeTr, res.Metrics); err != nil {
			return result{}, err
		}
		if err := st.close(setupTr); err != nil {
			return result{}, fmt.Errorf("teardown: %w", err)
		}
		if err := replayLayers(b.w, lg.duty(), b.seed, time.Duration(b.seconds)*time.Second/2, res.Metrics); err != nil {
			return result{}, err
		}
		lg.derive(res.Metrics)
		wire := []*tracer{probeTr}
		for _, d := range callers {
			wire = append(wire, d.tr)
		}
		path, err := dumpSpans(".bench_build/spans", b.w.name, b.seed, append([]*tracer{setupTr}, wire...))
		if err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Println("spans written to", path)
		printSpans("setup", []*tracer{setupTr})
		printSpans("warm", wire)
		return res, nil
	}
	if err := st.close(setupTr); err != nil {
		return result{}, fmt.Errorf("teardown: %w", err)
	}

	th, p50, p90 := windowStats(callers, c, func(int) bool { return true })
	res.Metrics["throughput_ts_per_s"] = metric{th, "1/s"}
	res.Metrics["latency_p50_us"] = metric{p50, "us"}
	res.Metrics["latency_p90_us"] = metric{p90, "us"}
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	res.Metrics["rss_peak_mib"] = metric{peakRSSMiB(), "MiB"}
	res.Metrics["registers_written"] = metric{float64(written), "count"}
	printTails(callers)
	return res, nil
}

// windowStats returns the medians, over the windows keep selects, of
// each window's throughput and latency p50/p90 across all sessions.
func windowStats(callers []*caller, c *clock, keep func(int) bool) (throughput, p50, p90 float64) {
	var th, l50, l90 []float64
	for win := 0; win < c.nWin; win++ {
		if !keep(win) {
			continue
		}
		var h latHist
		var ts uint64
		for _, d := range callers {
			h.merge(&d.wins[win].lat)
			ts += d.wins[win].ts
		}
		th = append(th, float64(ts)/(float64(c.winLen)/1e9))
		l50 = append(l50, h.quantile(0.50)/1e3)
		l90 = append(l90, h.quantile(0.90)/1e3)
	}
	return median(th), median(l50), median(l90)
}

// printTails prints p99 and p999 over the whole measure window, each
// only when at least ten samples lie beyond it. They are diagnostics:
// too few samples sit in a tail for it to repeat run to run.
func printTails(callers []*caller) {
	var h latHist
	for _, d := range callers {
		for i := range d.wins {
			h.merge(&d.wins[i].lat)
		}
	}
	for _, t := range []struct {
		name string
		q    float64
	}{{"latency_p99_us", 0.99}, {"latency_p999_us", 0.999}} {
		beyond := uint64(float64(h.n) * (1 - t.q))
		if beyond < 10 {
			continue
		}
		fmt.Printf("diagnostic %s %.4f us samples=%d beyond=%d (not gated)\n", t.name, h.quantile(t.q)/1e3, h.n, beyond)
	}
}

// registersWritten returns the paper's space measure and the register
// budget it must stay within: the default namespace's metered written
// count, or for the one-shot workload the largest count over the
// namespaces the run exhausted (the live one if none was).
func registersWritten(ctx context.Context, w workload, st *stack) (written, regs int, err error) {
	if w.oneShot {
		r := st.rot
		if r.retired > 0 {
			return r.maxWritten, min(r.maxRegs, oneShotRegs), nil
		}
		written, regs, err = r.space(ctx)
		return written, min(regs, oneShotRegs), err
	}
	m := st.srv.MetricsSnapshot()
	if m.Space == nil {
		return 0, 0, fmt.Errorf("default namespace is not metered")
	}
	return m.Space.Written, min(m.Space.Registers, defaultProcs), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSample is the Go runtime's process-wide state at one instant.
type rtSample struct {
	cpu                       int64 // ns of user and system time
	mallocs, bytes, gcs, gcNs uint64
}

func sampleRuntime() rtSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSample{
		cpu:     ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), gcNs: ms.PauseTotalNs,
	}
}

// srvSample is the slice of Server.MetricsSnapshot the ledger reads.
type srvSample struct {
	hCount, aCount                   uint64
	hSumNs, aSumNs                   float64
	frames, bytes, rejected, crashed uint64
}

func sampleServer(st *stack) srvSample {
	m := st.srv.MetricsSnapshot()
	h, a := m.Latency["binary_getts"], m.Latency["attach"]
	s := srvSample{
		hCount: h.Count, hSumNs: h.MeanNs * float64(h.Count),
		aCount: a.Count, aSumNs: a.MeanNs * float64(a.Count),
		frames:   m.BinaryFrames,
		bytes:    m.BinaryBytesIn + m.BinaryBytesOut,
		rejected: m.OversizedFrames + m.BadMagicConns + m.UnknownSessions + m.UnknownNamespaces,
		crashed:  m.CrashReclaimed,
	}
	for _, ns := range m.Namespaces {
		s.rejected += ns.QuotaRejections
	}
	return s
}
