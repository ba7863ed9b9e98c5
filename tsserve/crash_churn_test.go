package tsserve_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsspace"
	"tsspace/tsserve"
)

// 64 concurrent clients churn the wire session table — half crash
// (abandon their lease without Detach), half detach cleanly — split
// across wire v2 (HTTP) and wire v3 (binary), which share one table and
// one TTL reaper. The reaper must reclaim every abandoned pid, the full
// namespace must be attachable afterwards, and happens-before must hold
// from every pre-churn timestamp to every post-churn one (the reaped
// pids' sequence history survives reclamation).
//
// Run under -race this doubles as the data-race check on the session
// table: concurrent attach, getTS, detach, reap and metrics reads.
func TestWireCrashChurnRace(t *testing.T) {
	const (
		procs   = 8
		workers = 64
	)
	bc, hc, _, _ := newBinaryServer(t, tsserve.ServerConfig{SessionTTL: 40 * time.Millisecond},
		tsspace.WithAlgorithm("collect"), tsspace.WithProcs(procs))

	var (
		mu      sync.Mutex
		churnTS []tsspace.Timestamp
		crashed int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			// Even workers speak wire v2, odd workers wire v3; both lease
			// from the same table.
			var sess tsspace.SessionAPI
			var t1, t2 tsspace.Timestamp
			for attempt := 1; ; attempt++ {
				var err error
				if w%2 == 0 {
					sess, err = hc.Attach(ctx)
				} else {
					sess, err = bc.Attach(ctx)
				}
				if err != nil {
					t.Errorf("worker %d attach: %v", w, err)
					return
				}
				if t1, err = sess.GetTS(ctx); err == nil {
					t2, err = sess.GetTS(ctx)
				}
				if err == nil {
					break
				}
				// A worker descheduled past the TTL between its calls lost
				// its idle lease to the reaper, as it should: lease again.
				if !errors.Is(err, tsspace.ErrDetached) || attempt == 3 {
					t.Errorf("worker %d getTS (attempt %d): %v", w, attempt, err)
					return
				}
			}
			// A worker's own stream is sequential, so its two timestamps
			// must be ordered whatever the interleaving around it.
			if !tsspace.Less(t1, t2) {
				t.Errorf("worker %d: %v does not order before %v", w, t1, t2)
			}
			mu.Lock()
			churnTS = append(churnTS, t1, t2)
			mu.Unlock()

			// Half the workers crash: walk away without Detach, leaving the
			// lease for the reaper.
			if w%4 < 2 {
				mu.Lock()
				crashed++
				mu.Unlock()
				return
			}
			if err := sess.Detach(); err != nil {
				t.Errorf("worker %d detach: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if crashed == 0 {
		t.Fatal("no worker crashed; the churn exercised nothing")
	}

	// Every abandoned lease must be reclaimed — by the TTL reaper, or by
	// the server-side conn cleanup when the GC finalizes an abandoned
	// client conn and closes its socket first — and the table must drain
	// completely. Poll: the last crashes may still be inside their TTL
	// window.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var m tsserve.Metrics
	for deadline := time.Now().Add(10 * time.Second); ; {
		var err error
		if m, err = hc.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
		if m.ReapedSessions+m.CrashReclaimed >= uint64(crashed) && m.WireSessions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("table never drained: %d reaped + %d crash-reclaimed of %d crashed, %d wire sessions live",
				m.ReapedSessions, m.CrashReclaimed, crashed, m.WireSessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Exactly the abandoned leases in the common case; a cleanly-detaching
	// worker descheduled past the TTL can legitimately add to the count,
	// so only the lower bound (the poll above) is asserted.
	t.Logf("churn: %d workers, %d crashed, %d reaped, %d crash-reclaimed",
		workers, crashed, m.ReapedSessions, m.CrashReclaimed)

	// Every pid is free again: attaching the full namespace concurrently
	// succeeds. Each lease takes its timestamp immediately and detaches,
	// staying well inside the TTL.
	post := make([]tsspace.Timestamp, procs)
	errs := make([]error, procs)
	var postWG sync.WaitGroup
	for i := 0; i < procs; i++ {
		postWG.Add(1)
		go func(i int) {
			defer postWG.Done()
			sess, err := hc.Attach(ctx)
			if err != nil {
				errs[i] = err
				return
			}
			defer sess.Detach()
			post[i], errs[i] = sess.GetTS(ctx)
		}(i)
	}
	postWG.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("post-churn lease %d: %v", i, err)
		}
	}

	// Happens-before across the crashes: every churn-phase getTS completed
	// before any post-churn call was invoked, reaped pids included.
	for _, pre := range churnTS {
		for i, p := range post {
			if !tsspace.Less(pre, p) {
				t.Errorf("pre=%v does not order before post[%d]=%v across reaped lease", pre, i, p)
			}
		}
	}
}

// Concurrent one-shot clients on both wires spend one shared budget.
// Each getTS retires its lease server-side and each Detach is local, so
// once attaches report exhaustion exactly n timestamps were issued, no
// lease is left in the table or the Object, no detach ever reached the
// server to be answered unknown_session, and every worker's own stream
// is ordered. Run under -race this is the data-race check on the
// retire-in-getTS path against concurrent attaches and pooled
// connections.
func TestOneShotChurnRace(t *testing.T) {
	const procs, workers = 64, 8
	bc, hc, _, obj := newBinaryServer(t, tsserve.ServerConfig{},
		tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(procs))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var issued atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev tsspace.Timestamp
			for n := 0; ; n++ {
				var sess tsspace.SessionAPI
				var err error
				if w%2 == 0 {
					sess, err = hc.Attach(ctx)
				} else {
					sess, err = bc.Attach(ctx)
				}
				if errors.Is(err, tsspace.ErrExhausted) {
					return
				}
				if err != nil {
					t.Errorf("worker %d attach: %v", w, err)
					return
				}
				ts, err := sess.GetTS(ctx)
				if err != nil {
					t.Errorf("worker %d getTS: %v", w, err)
					return
				}
				if _, err := sess.GetTS(ctx); !errors.Is(err, tsspace.ErrOneShot) {
					t.Errorf("worker %d second getTS = %v, want ErrOneShot", w, err)
				}
				if err := sess.Detach(); err != nil {
					t.Errorf("worker %d detach: %v", w, err)
				}
				if n > 0 && !tsspace.Less(prev, ts) {
					t.Errorf("worker %d: %v does not order after its earlier %v", w, ts, prev)
				}
				prev = ts
				issued.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := issued.Load(); got != procs {
		t.Errorf("issued %d timestamps before exhaustion, want %d", got, procs)
	}
	m, err := hc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.WireSessions != 0 || m.UnknownSessions != 0 || obj.Stats().ActiveSessions != 0 {
		t.Errorf("after the budget: %d wire leases, %d unknown-session rejections, %d active SDK sessions; want 0",
			m.WireSessions, m.UnknownSessions, obj.Stats().ActiveSessions)
	}
}
