package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"tsspace"
	"tsspace/internal/register"
	"tsspace/internal/timestamp"
)

// replayRounds is how many interleaved rounds the replays run in. Each
// round runs every replay once; a metric is the median over the rounds,
// so slow drift of the host lands on every replay alike instead of on
// whichever ran last.
const replayRounds = 8

// replayLayers replays the workload's operation shape at its session
// count below the wire, in budget: half on an in-process tsspace.Object
// built like the served one, half on the algorithm's GetTS over raw and
// metered register stacks. It fills the tsspace, register and timestamp
// rows of the ledger.
//
// duty is the share of its time each session spent inside the server's
// getTS handler on the wire. Replayed back to back, two goroutines would
// overlap on the shared registers and the meter's mutex nearly all the
// time, far more than sessions whose getTS calls are spaced by round
// trips (the one-shot workload's three per timestamp); so each replay
// goroutine is paced to that duty. The one-goroutine baseline is not
// paced: it has no one to meet.
func replayLayers(w workload, duty float64, seed uint64, budget time.Duration, m map[string]metric) error {
	alg, n := targetAlg(w), targetProcs(w)
	pc := pacing{duty: duty, seed: seed}
	if w.sessions == 1 {
		pc.duty = 1
	}
	fmt.Printf("replay sessions=%d paced to getTS duty=%.3f\n", w.sessions, pc.duty)
	slice := budget / replayRounds
	var sdkNs, attachUs, detachUs, sdkAllocs, rawNs, metNs, met1Ns, reads, writes []float64
	for r := 0; r < replayRounds; r++ {
		runtime.GC() // each replay starts without the previous one's garbage
		sdk, err := replaySDK(w, pc, slice/2)
		if err != nil {
			return fmt.Errorf("tsspace replay: %w", err)
		}
		runtime.GC()
		raw, err := replayRegisters(alg, n, w.sessions, pc, false, slice/6)
		if err != nil {
			return fmt.Errorf("raw register replay: %w", err)
		}
		runtime.GC()
		met, err := replayRegisters(alg, n, w.sessions, pc, true, slice/6)
		if err != nil {
			return fmt.Errorf("metered register replay: %w", err)
		}
		// With one session there is no other goroutine to wait for.
		met1 := met
		if w.sessions > 1 {
			runtime.GC()
			if met1, err = replayRegisters(alg, n, 1, pacing{duty: 1}, true, slice/6); err != nil {
				return fmt.Errorf("metered register replay, one goroutine: %w", err)
			}
		}
		sdkNs, attachUs, detachUs = append(sdkNs, sdk.gettsNs), append(attachUs, sdk.attachUs), append(detachUs, sdk.detachUs)
		sdkAllocs = append(sdkAllocs, sdk.allocs)
		rawNs, metNs, met1Ns = append(rawNs, raw.ns), append(metNs, met.ns), append(met1Ns, met1.ns)
		reads, writes = append(reads, met.reads), append(writes, met.writes)
	}
	allocs, err := registerAllocs(alg, n)
	if err != nil {
		return fmt.Errorf("register alloc pass: %w", err)
	}

	raw, met, sdk := median(rawNs), median(metNs), median(sdkNs)
	m["timestamp.getts_ns"] = metric{raw, "ns"}
	m["timestamp.reads_per_ts"] = metric{median(reads), "count"}
	m["timestamp.writes_per_ts"] = metric{median(writes), "count"}
	m["timestamp.allocs_per_ts"] = metric{allocs, "count"}
	m["register.metered_getts_ns"] = metric{met, "ns"}
	m["register.meter_ns"] = metric{met - raw, "ns"}
	m["register.meter_wait_ns"] = metric{met - median(met1Ns), "ns"}
	m["tsspace.getts_ns"] = metric{sdk, "ns"}
	m["tsspace.guard_ns"] = metric{sdk - met, "ns"}
	m["tsspace.attach_us"] = metric{median(attachUs), "us"}
	m["tsspace.detach_us"] = metric{median(detachUs), "us"}
	m["tsspace.allocs_per_ts"] = metric{median(sdkAllocs), "count"}
	return nil
}

// pacing is the getTS duty the replay goroutines keep, and the seed of
// the gaps between their calls.
type pacing struct {
	duty float64
	seed uint64
}

// pacer spaces one replay goroutine's getTS work.
type pacer struct {
	duty float64
	rng  *rand.Rand
}

func (pc pacing) pacer(goroutine int) pacer {
	return pacer{duty: pc.duty, rng: rand.New(rand.NewPCG(pc.seed, uint64(goroutine)))}
}

// wait spins after busy, the getTS work done since start, for a gap that
// averages busy·(1/duty − 1), so the work fills the share duty of the
// goroutine's time. The gap is drawn uniformly from zero to twice its
// mean, so that goroutines that start together drift out of step, as
// sessions spaced by network round trips are. It spins rather than
// sleeps: a sleep would idle the CPU and cool the caches for the next
// call, which the wire's sessions do not.
func (p pacer) wait(start time.Time, busy time.Duration) {
	if p.duty >= 1 {
		return
	}
	gap := float64(busy) * (1/p.duty - 1) * 2 * p.rng.Float64()
	until := start.Add(busy + time.Duration(gap))
	for time.Now().Before(until) {
	}
}

type sdkReplay struct {
	gettsNs, attachUs, detachUs, allocs float64
}

// sdkWorker is one goroutine's share of an SDK replay.
type sdkWorker struct {
	pace                  pacer
	getts, attach, detach time.Duration
	ts, attaches          int
	err                   error
}

// replaySDK drives an in-process Object with the served options: steady
// workloads hold one session per goroutine and call GetTS/GetTSBatch,
// then spend a fifth of d on attach/detach pairs; the one-shot workload
// attaches, takes one timestamp and detaches, replacing the object when
// it is spent. GetTS is paced by pc.
func replaySDK(w workload, pc pacing, d time.Duration) (sdkReplay, error) {
	newObj := func() (*tsspace.Object, error) {
		return tsspace.New(tsspace.WithAlgorithm(targetAlg(w)), tsspace.WithProcs(targetProcs(w)), tsspace.WithMetering())
	}
	obj, err := newObj()
	if err != nil {
		return sdkReplay{}, err
	}
	var mu sync.RWMutex // one-shot: held for reading from attach to detach
	gen := 0
	ctx := context.Background()
	workers := make([]sdkWorker, w.sessions)
	for i := range workers {
		workers[i].pace = pc.pacer(i)
	}

	steady := func(wk *sdkWorker, end time.Time) {
		buf := make([]tsspace.Timestamp, w.batch)
		calls := max(1, 256/w.batch) // timed together, so the clock costs nothing per call
		s, err := obj.Attach(ctx)
		if err != nil {
			wk.err = err
			return
		}
		for time.Now().Before(end) {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				if _, err := s.GetTSBatch(ctx, buf); err != nil {
					wk.err = err
					return
				}
			}
			busy := time.Since(t0)
			wk.getts += busy
			wk.ts += calls * w.batch
			wk.pace.wait(t0, busy)
		}
		wk.err = s.Detach()
	}
	pairs := func(wk *sdkWorker, end time.Time) {
		for time.Now().Before(end) {
			t0 := time.Now()
			s, err := obj.Attach(ctx)
			t1 := time.Now()
			if err != nil {
				wk.err = err
				return
			}
			if err := s.Detach(); err != nil {
				wk.err = err
				return
			}
			wk.attach += t1.Sub(t0)
			wk.detach += time.Since(t1)
			wk.attaches++
		}
	}
	oneShot := func(wk *sdkWorker, end time.Time) {
		for time.Now().Before(end) {
			mu.RLock()
			o, g := obj, gen
			t0 := time.Now()
			s, err := o.Attach(ctx)
			t1 := time.Now()
			if errors.Is(err, tsspace.ErrExhausted) {
				mu.RUnlock()
				mu.Lock()
				if gen == g {
					_ = obj.Close()
					if obj, err = newObj(); err != nil {
						wk.err = err
						mu.Unlock()
						return
					}
					gen++
				}
				mu.Unlock()
				continue
			}
			if err != nil {
				mu.RUnlock()
				wk.err = err
				return
			}
			_, err = s.GetTS(ctx)
			t2 := time.Now()
			derr := s.Detach()
			t3 := time.Now()
			mu.RUnlock()
			if err = errors.Join(err, derr); err != nil {
				wk.err = err
				return
			}
			wk.attach += t1.Sub(t0)
			wk.getts += t2.Sub(t1)
			wk.detach += t3.Sub(t2)
			wk.attaches++
			wk.ts++
			wk.pace.wait(t0, t2.Sub(t1))
		}
	}

	parallel := func(f func(*sdkWorker, time.Time), d time.Duration) {
		end := time.Now().Add(d)
		var wg sync.WaitGroup
		for i := range workers {
			wg.Add(1)
			go func() { defer wg.Done(); f(&workers[i], end) }()
		}
		wg.Wait()
	}
	before := sampleRuntime()
	if w.oneShot {
		parallel(oneShot, d)
	} else {
		parallel(steady, d*4/5)
	}
	after := sampleRuntime()
	if !w.oneShot {
		parallel(pairs, d/5)
	}
	_ = obj.Close()

	var sum sdkWorker
	for _, wk := range workers {
		if wk.err != nil {
			return sdkReplay{}, wk.err
		}
		sum.getts += wk.getts
		sum.attach += wk.attach
		sum.detach += wk.detach
		sum.ts += wk.ts
		sum.attaches += wk.attaches
	}
	if sum.ts == 0 || sum.attaches == 0 {
		return sdkReplay{}, fmt.Errorf("no operations completed in %v", d)
	}
	return sdkReplay{
		gettsNs:  float64(sum.getts.Nanoseconds()) / float64(sum.ts),
		attachUs: float64(sum.attach.Nanoseconds()) / float64(sum.attaches) / 1e3,
		detachUs: float64(sum.detach.Nanoseconds()) / float64(sum.attaches) / 1e3,
		allocs:   float64(after.mallocs-before.mallocs) / float64(sum.ts),
	}, nil
}

// regStack is one register array for the algorithm with its per-process
// stacks, built the way tsspace.New builds an object's: metering (when
// on) under the algorithm's writer discipline.
type regStack struct {
	alg   timestamp.Algorithm
	mems  []register.Mem
	meter *register.Meter
}

func newRegStack(alg timestamp.Algorithm, n int, metered bool) *regStack {
	var base register.Mem
	if sv, ok := alg.(timestamp.ScalarValued); ok && sv.ScalarValued() {
		base = register.NewInt64Array(alg.Registers())
	} else {
		base = register.NewAtomicArray(alg.Registers())
	}
	rs := &regStack{alg: alg, mems: make([]register.Mem, n)}
	var mw register.Middleware
	if metered {
		rs.meter = register.NewMeterSize(base.Size())
		mw = register.Metered(rs.meter)
	}
	table := alg.WriterTable()
	for pid := range rs.mems {
		rs.mems[pid] = register.Wrap(base, mw, register.DisciplineFor(table, pid))
	}
	return rs
}

type regReplay struct {
	ns, reads, writes float64
}

// replayRegisters calls Algorithm.GetTS from g goroutines for about d,
// paced by pc. Long-lived algorithms give goroutine i process i on one
// array, as the served sessions lease pids 0..g-1, and run until d is
// up; one-shot algorithms spend every process of a fresh array per
// round, the goroutines splitting the pids.
func replayRegisters(name string, n, g int, pc pacing, metered bool, d time.Duration) (regReplay, error) {
	alg := timestamp.MustNew(name, n)
	const chunk = 64 // calls timed together, so the clock costs nothing per call
	type worker struct {
		pace pacer
		busy time.Duration
		ops  int
		err  error
	}
	workers := make([]worker, g)
	for i := range workers {
		workers[i].pace = pc.pacer(i)
	}
	var reads, writes uint64
	end := time.Now().Add(d)
	longLived := func(rs *regStack, i int, wk *worker) {
		for seq := 0; time.Now().Before(end); {
			t0 := time.Now()
			for k := 0; k < chunk; k++ {
				if _, err := alg.GetTS(rs.mems[i], i, seq); err != nil {
					wk.err = err
					return
				}
				seq++
			}
			busy := time.Since(t0)
			wk.busy += busy
			wk.ops += chunk
			wk.pace.wait(t0, busy)
		}
	}
	oneShot := func(rs *regStack, i int, wk *worker) {
		for lo := i; lo < n; lo += g * chunk {
			t0 := time.Now()
			for pid := lo; pid < min(n, lo+g*chunk); pid += g {
				if _, err := alg.GetTS(rs.mems[pid], pid, 0); err != nil {
					wk.err = err
					return
				}
				wk.ops++
			}
			busy := time.Since(t0)
			wk.busy += busy
			wk.pace.wait(t0, busy)
		}
	}
	for first := true; first || (alg.OneShot() && time.Now().Before(end)); first = false {
		rs := newRegStack(alg, n, metered)
		var wg sync.WaitGroup
		for i := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if alg.OneShot() {
					oneShot(rs, i, &workers[i])
				} else {
					longLived(rs, i, &workers[i])
				}
			}()
		}
		wg.Wait()
		if rs.meter != nil {
			t := rs.meter.Totals()
			reads, writes = reads+t.Reads, writes+t.Writes
		}
	}
	var busy time.Duration
	var ops int
	for _, wk := range workers {
		if wk.err != nil {
			return regReplay{}, wk.err
		}
		busy += wk.busy
		ops += wk.ops
	}
	if ops == 0 {
		return regReplay{}, fmt.Errorf("no operations completed in %v", d)
	}
	return regReplay{
		ns:     float64(busy.Nanoseconds()) / float64(ops),
		reads:  float64(reads) / float64(ops),
		writes: float64(writes) / float64(ops),
	}, nil
}

// registerAllocs counts heap allocations per Algorithm.GetTS on the raw
// stack, from one goroutine so nothing else allocates meanwhile.
func registerAllocs(name string, n int) (float64, error) {
	alg := timestamp.MustNew(name, n)
	rs := newRegStack(alg, n, false)
	ops := min(n, 1024)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < ops; i++ {
		pid, seq := 0, i
		if alg.OneShot() {
			pid, seq = i, 0
		}
		if _, err := alg.GetTS(rs.mems[pid], pid, seq); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(ops), nil
}
