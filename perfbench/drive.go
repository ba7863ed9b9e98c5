package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"tsspace"
)

// stamp is a timestamp with the one-shot namespace generation that
// issued it; timestamps of different generations come from different
// objects and are never compared.
type stamp struct {
	ts  tsspace.Timestamp
	gen uint64
}

// checker tests the happens-before property on what one session
// receives: each timestamp against the one before it, against a
// seeded-random earlier one, and against the latest timestamp every
// other session had completed before this operation began. For each
// such pair a before b, Compare(a, b) must hold and Compare(b, a) not.
type checker struct {
	cmp        func(a, b tsspace.Timestamp) bool
	rng        *rand.Rand
	prev       stamp
	havePrev   bool
	ring       [64]stamp
	ringN      int
	compared   uint64
	violations uint64
	first      string
}

func (c *checker) hb(a, b stamp) {
	if a.gen != b.gen {
		return
	}
	c.compared++
	if !c.cmp(a.ts, b.ts) || c.cmp(b.ts, a.ts) {
		c.violations++
		if c.first == "" {
			c.first = fmt.Sprintf("%v completed before %v was issued, but Compare does not order them", a.ts, b.ts)
		}
	}
}

func (c *checker) check(got []tsspace.Timestamp, gen uint64, others []stamp) {
	first := stamp{got[0], gen}
	if c.havePrev {
		c.hb(c.prev, first)
	}
	for i := 1; i < len(got); i++ {
		c.hb(stamp{got[i-1], gen}, stamp{got[i], gen})
	}
	if c.ringN > 0 {
		c.hb(c.ring[c.rng.IntN(min(c.ringN, len(c.ring)))], first)
	}
	for _, o := range others {
		c.hb(o, first)
	}
	last := stamp{got[len(got)-1], gen}
	c.ring[c.ringN%len(c.ring)] = last
	c.ringN++
	c.prev, c.havePrev = last, true
}

// board holds each session's latest completed timestamp.
type board struct {
	mu   sync.Mutex
	last []stamp
	set  []bool
}

func (b *board) snapshot(self int, dst []stamp) []stamp {
	b.mu.Lock()
	for i, s := range b.last {
		if i != self && b.set[i] {
			dst = append(dst, s)
		}
	}
	b.mu.Unlock()
	return dst
}

func (b *board) publish(i int, s stamp) {
	b.mu.Lock()
	b.last[i], b.set[i] = s, true
	b.mu.Unlock()
}

// clock drives the phases of one wire run: warm-up until start is set,
// then nWin windows of winLen each. An operation belongs to the window
// in which it started.
type clock struct {
	start  atomic.Int64 // ns since the epoch; 0 while warming up
	winLen int64
	nWin   int
	// traced marks windows in which spans are recorded; the others
	// measure the same traffic untraced, for the tracing overhead.
	traced func(win int) bool
}

// window returns the window an operation starting at t belongs to: -1
// during warm-up, nWin once the measure window has ended.
func (c *clock) window(t int64) int {
	s := c.start.Load()
	if s == 0 || t < s {
		return -1
	}
	return min(int((t-s)/c.winLen), c.nWin)
}

type winStats struct {
	lat     latHist
	ts, ops uint64
}

// caller is one closed-loop session: it asks for its next timestamp only
// once the previous one has arrived.
type caller struct {
	idx int
	w   workload
	st  *stack
	tr  *tracer
	bd  *board
	chk checker

	buf    []tsspace.Timestamp
	others []stamp
	wins   []winStats

	attempted, failed uint64
	exhausted         uint64 // attaches that found the one-shot namespace spent: expected
	err               error
}

func newCaller(idx int, w workload, st *stack, tr *tracer, bd *board, seed uint64, nWin int) *caller {
	cmpObj, err := tsspace.New(tsspace.WithAlgorithm(targetAlg(w)), tsspace.WithProcs(targetProcs(w)))
	if err != nil {
		panic(err) // fixed, valid configuration
	}
	return &caller{
		idx: idx, w: w, st: st, tr: tr, bd: bd,
		chk:    checker{cmp: cmpObj.Compare, rng: rand.New(rand.NewPCG(seed, uint64(idx)))},
		buf:    make([]tsspace.Timestamp, w.batch),
		others: make([]stamp, 0, w.sessions),
		wins:   make([]winStats, nWin),
	}
}

// targetAlg and targetProcs give the object the workload's sessions
// attach to: the default namespace, or the one-shot sqrt namespaces.
func targetAlg(w workload) string {
	if w.oneShot {
		return oneShotAlg
	}
	return defaultAlg
}

func targetProcs(w workload) int {
	if w.oneShot {
		return oneShotProcs
	}
	return defaultProcs
}

// loop runs operations back to back until the clock's last window has
// ended or an operation fails.
func (d *caller) loop(ctx context.Context, c *clock) {
	for {
		t0 := d.tr.now()
		win := c.window(t0)
		if win == c.nWin {
			return
		}
		d.tr.on = win >= 0 && c.traced != nil && c.traced(win)
		d.others = d.others[:0]
		if d.bd != nil {
			d.others = d.bd.snapshot(d.idx, d.others)
		}
		if d.tr.on {
			d.tr.beginOp()
		}
		got, gen, err := d.op(ctx)
		t1 := d.tr.now()
		if d.tr.on {
			d.tr.endOp(t0, t1)
		}
		d.attempted++
		if win >= 0 {
			d.wins[win].ops++
		}
		if err != nil {
			d.failed++
			d.err = err
			return
		}
		if win >= 0 {
			d.wins[win].ts += uint64(len(got))
			d.wins[win].lat.record(t1 - t0)
		}
		d.chk.check(got, gen, d.others)
		if d.bd != nil {
			d.bd.publish(d.idx, stamp{got[len(got)-1], gen})
		}
	}
}

func (d *caller) op(ctx context.Context) ([]tsspace.Timestamp, uint64, error) {
	if d.w.oneShot {
		s, err := d.oneShotOp(ctx)
		d.buf[0] = s.ts
		return d.buf[:1], s.gen, err
	}
	s, tr := d.st.sessions[d.idx], d.tr
	var a int64
	if tr.on {
		a = tr.now()
	}
	var n int
	var err error
	if d.w.batch == 1 {
		d.buf[0], err = s.GetTS(ctx)
		n = 1
	} else {
		n, err = s.GetTSBatch(ctx, d.buf)
	}
	if tr.on {
		tr.span(kGetTS, a, tr.now())
	}
	if err == nil && n != len(d.buf) {
		err = fmt.Errorf("batch of %d returned %d timestamps", len(d.buf), n)
	}
	return d.buf[:n], 0, err
}

// runWire drives the workload's sessions over st: warmUp, then the
// clock's windows. sample, when non-nil, is called at the start of the
// measure window and at every window boundary after it.
func runWire(ctx context.Context, callers []*caller, c *clock, warmUp time.Duration, epoch time.Time, sample func(win int)) {
	var wg sync.WaitGroup
	for _, d := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.loop(ctx, c)
		}()
	}
	time.Sleep(warmUp)
	start := int64(time.Since(epoch))
	c.start.Store(start)
	boundary := func(win int) time.Time { return epoch.Add(time.Duration(start + int64(win)*c.winLen)) }
	if sample == nil {
		time.Sleep(time.Until(boundary(c.nWin)))
	} else {
		sample(0)
		for win := 1; win <= c.nWin; win++ {
			time.Sleep(time.Until(boundary(win)))
			sample(win)
		}
	}
	wg.Wait()
}
