package tsspace_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tsspace"
)

// Abandon every lease without Detach: the TTL reaper must reclaim all of
// them, re-attach must succeed for the full namespace, and the sequence
// history must survive the reclamation (the re-leased pids continue their
// call counts, so the happens-before property holds across the crash).
func TestSessionTTLReclaimsAbandonedLeases(t *testing.T) {
	const n = 8
	obj, err := tsspace.New(
		tsspace.WithAlgorithm("collect"),
		tsspace.WithProcs(n),
		tsspace.WithSessionTTL(50*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	ctx := context.Background()

	first := make([]tsspace.Timestamp, n)
	abandoned := make([]*tsspace.Session, n)
	for i := 0; i < n; i++ {
		s, err := obj.Attach(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if first[i], err = s.GetTS(ctx); err != nil {
			t.Fatal(err)
		}
		abandoned[i] = s // crash: never Detach
	}

	// All pids are leased and abandoned; a fresh Attach can only succeed
	// once the reaper reclaims one. The new leases are held until all n
	// are granted, so the loop needs every abandoned pid back, not just
	// one recycled n times.
	attachCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	second := make([]tsspace.Timestamp, n)
	for i := 0; i < n; i++ {
		s, err := obj.Attach(attachCtx)
		if err != nil {
			t.Fatalf("re-attach %d after abandonment: %v", i, err)
		}
		defer s.Detach()
		if second[i], err = s.GetTS(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Happens-before across the reclamation: every pre-crash timestamp
	// completed before every post-reclaim call was invoked.
	for i := range first {
		for j := range second {
			if !obj.Compare(first[i], second[j]) {
				t.Errorf("Compare(first[%d]=%v, second[%d]=%v) = false across reaped lease", i, first[i], j, second[j])
			}
		}
	}

	if got := obj.Stats().Reaped; got < n {
		t.Errorf("Stats().Reaped = %d, want ≥ %d", got, n)
	}
	// The abandoned handles are dead, not wedged: their next call reports
	// ErrDetached.
	if _, err := abandoned[0].GetTS(ctx); !errors.Is(err, tsspace.ErrDetached) {
		t.Errorf("abandoned session GetTS = %v, want ErrDetached", err)
	}
}

// A busy session must never be reaped: activity is what the reaper
// watches, not attachment age.
func TestSessionTTLSparesBusySessions(t *testing.T) {
	obj, err := tsspace.New(
		tsspace.WithAlgorithm("collect"),
		tsspace.WithProcs(2),
		tsspace.WithSessionTTL(40*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	ctx := context.Background()
	s, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := s.GetTS(ctx); err != nil {
			t.Fatalf("busy session reaped: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := obj.Stats().Reaped; got != 0 {
		t.Errorf("Stats().Reaped = %d for a busy session, want 0", got)
	}
	s.Detach()
}

// Local crash-churn under the race detector: concurrent workers abandon
// sessions mid-stream while others attach; the reaper keeps the namespace
// circulating and the object's counters stay coherent.
func TestSessionTTLCrashChurnRace(t *testing.T) {
	const n = 4
	const workers = 16
	obj, err := tsspace.New(
		tsspace.WithAlgorithm("collect"),
		tsspace.WithProcs(n),
		tsspace.WithSessionTTL(20*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s, err := obj.Attach(ctx)
			if err != nil {
				t.Errorf("worker %d attach: %v", w, err)
				return
			}
			if _, err := s.GetTS(ctx); err != nil {
				t.Errorf("worker %d getTS: %v", w, err)
			}
			// Half the workers crash (abandon), half detach cleanly.
			if w%2 == 0 {
				s.Detach()
			}
		}(w)
	}
	wg.Wait()

	// Every abandoned lease must come back within a few TTLs.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		s, err := obj.Attach(ctx)
		if err != nil {
			t.Fatalf("post-churn attach %d: %v", i, err)
		}
		defer s.Detach()
	}
}

// A long batch is one call but many steps, and the reaper must see it
// move: GetTSBatch publishes its sequence number every 64 timestamps, so
// a batch that outlasts many TTLs is never taken for an abandoned lease.
// A batch that published only at its end would look idle for its whole
// length, be detached mid-batch, and free its pid — and that pid's
// single-writer register — for a second lease while it still wrote.
//
// The TTL is 50 ms, not a few: on a shared 2-vCPU host a spinning
// goroutine sees a scheduling gap over 5 ms in about one 100 ms window
// in 25, and a reaper cannot tell such a gap from an idle lease. n = 2048
// makes each timestamp a 2048-register collect, so ten TTLs fit in a few
// MiB of timestamps, and 64 of them take a few ms under -race.
func TestSessionTTLSparesLongBatch(t *testing.T) {
	const (
		ttl     = 50 * time.Millisecond
		maxSize = 1 << 20 // 16 MiB of timestamps, should the host be very fast
	)
	obj, err := tsspace.New(
		tsspace.WithAlgorithm("collect"),
		tsspace.WithProcs(2048),
		tsspace.WithMetering(),
		tsspace.WithSessionTTL(ttl),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	ctx := context.Background()

	// Size the batch from a timed probe so that it lasts at least ten
	// TTLs on this host, race detector or not: the probe runs cold, so
	// aim at twelve. The probe has a lease of its own, and the session
	// under test attaches only once its buffer is allocated, so nothing
	// but the batch runs between its attach and its last timestamp.
	probe := make([]tsspace.Timestamp, 1024)
	ps, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if n, err := ps.GetTSBatch(ctx, probe); n != len(probe) || err != nil {
		t.Fatalf("probe batch = (%d, %v), want (%d, nil)", n, err, len(probe))
	}
	perTS := time.Since(start) / time.Duration(len(probe))
	ps.Detach()
	size := min(maxSize, int(12*ttl/max(perTS, 1)))
	buf := make([]tsspace.Timestamp, size)

	s, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Detach()
	start = time.Now()
	n, err := s.GetTSBatch(ctx, buf)
	took := time.Since(start)
	if n != size || err != nil {
		t.Fatalf("long batch = (%d, %v), want (%d, nil)", n, err, size)
	}
	if took < 10*ttl {
		t.Logf("batch of %d took %v, under ten TTLs of %v: the reaper had fewer chances", size, took, ttl)
	}
	if got := obj.Stats().Reaped; got != 0 {
		t.Errorf("Stats().Reaped = %d after a %v batch under a %v TTL, want 0", got, took, ttl)
	}
	if _, err := s.GetTS(ctx); err != nil {
		t.Errorf("GetTS after the long batch = %v, want a timestamp", err)
	}
}
