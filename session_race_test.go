package tsspace_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsspace"
	"tsspace/internal/hbcheck"
)

// The churn workload of the ISSUE acceptance criteria: well over 1000
// short-lived sessions contending for a 16-pid long-lived object. Run
// under -race (CI does) it checks three properties at once:
//
//   - leasing never hands the same pid to two live sessions (the inFlight
//     CAS below would observe the double lease);
//   - per-pid sequence numbers survive recycling without races;
//   - the happens-before property holds across every pair of calls, over
//     session and lease boundaries.
func TestSessionChurnRaceHappensBefore(t *testing.T) {
	const (
		procs    = 16
		workers  = 32
		sessions = 1280 // per the acceptance bar: ≥ 1000 through 16 pids
		calls    = 3
	)
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithProcs(procs), tsspace.WithMetering())

	var (
		inFlight [procs]atomic.Bool
		rec      hbcheck.Recorder
		next     atomic.Int64 // session ids, used as event identity
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id := int(next.Add(1)) - 1
				if id >= sessions {
					return
				}
				s, err := obj.Attach(ctx)
				if err != nil {
					t.Errorf("session %d: attach: %v", id, err)
					return
				}
				if !inFlight[s.Pid()].CompareAndSwap(false, true) {
					t.Errorf("session %d: pid %d double-leased", id, s.Pid())
				}
				for k := 0; k < calls; k++ {
					start := rec.Begin()
					ts, err := s.GetTS(ctx)
					if err != nil {
						t.Errorf("session %d call %d: %v", id, k, err)
						break
					}
					rec.End(id, k, start, ts)
				}
				inFlight[s.Pid()].Store(false)
				if err := s.Detach(); err != nil {
					t.Errorf("session %d: detach: %v", id, err)
				}
			}
		}()
	}
	wg.Wait()

	events := rec.Events()
	if len(events) != sessions*calls {
		t.Fatalf("recorded %d events, want %d", len(events), sessions*calls)
	}
	if err := hbcheck.Check(events); err != nil {
		t.Errorf("happens-before violated across session churn: %v", err)
	}

	st := obj.Stats()
	if st.Calls != sessions*calls || st.Attaches != sessions || st.ActiveSessions != 0 {
		t.Errorf("Stats = %+v, want %d calls / %d attaches / 0 active", st, sessions*calls, sessions)
	}
	if u, _ := obj.Space(); u.Written != procs {
		t.Errorf("collect over %d pids wrote %d registers, want %d", procs, u.Written, procs)
	}
}

// The batch-first churn workload of the v2 redesign: 64 goroutines loop
// Attach → GetTSBatch → Detach against a 16-pid object while dedicated
// readers hammer Space(), WrittenSet() and Stats(), and one more reads
// Calls() on the live sessions while their batches publish it — under
// -race this checks that the lock-free hot path, the padded procs, and
// the cold-path bookkeeping never trade data races for the dropped
// object-wide mutex. Afterwards every worker's batch stream goes through
// hbcheck: batches from one worker are sequential in real time, so the
// whole per-worker stream must be strictly ordered — in particular every
// batch must be internally strictly ordered.
func TestBatchChurnRaceWithConcurrentReaders(t *testing.T) {
	const (
		procs    = 16
		workers  = 64
		rounds   = 24 // attach/batch/detach cycles per worker
		maxBatch = 8
		readers  = 4
	)
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithProcs(procs), tsspace.WithMetering())

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	live := make([]atomic.Pointer[tsspace.Session], workers)
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for w := range live {
				if s := live[w].Load(); s != nil {
					if c := s.Calls(); c < 0 || c > maxBatch {
						t.Errorf("worker %d: live session Calls = %d, want 0..%d", w, c, maxBatch)
						return
					}
				}
			}
		}
	}()
	for i := 0; i < readers; i++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, metered := obj.Space(); !metered {
					t.Error("metered object reported unmetered mid-run")
					return
				}
				if set := obj.WrittenSet(); len(set) > procs {
					t.Errorf("WrittenSet = %v with %d registers", set, procs)
					return
				}
				if st := obj.Stats(); st.ActiveSessions < 0 || st.ActiveSessions > procs {
					t.Errorf("Stats.ActiveSessions = %d with %d pids", st.ActiveSessions, procs)
					return
				}
			}
		}()
	}

	recs := make([]hbcheck.Recorder, workers)
	var totalTS atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := &recs[w]
			buf := make([]tsspace.Timestamp, maxBatch)
			seq := 0
			for round := 0; round < rounds; round++ {
				s, err := obj.Attach(ctx)
				if err != nil {
					t.Errorf("worker %d round %d: attach: %v", w, round, err)
					return
				}
				live[w].Store(s)
				size := 1 + (w+round)%maxBatch
				start := rec.Begin()
				n, err := s.GetTSBatch(ctx, buf[:size])
				if err != nil || n != size {
					t.Errorf("worker %d round %d: batch = (%d, %v), want (%d, nil)", w, round, n, err, size)
					s.Detach()
					return
				}
				// All timestamps of one batch share the batch's interval:
				// hbcheck then orders them against every non-overlapping
				// call while the explicit loop below pins the within-batch
				// order the shared interval cannot express.
				for i := 0; i < n; i++ {
					rec.End(w, seq, start, buf[i])
					seq++
				}
				for i := 0; i+1 < n; i++ {
					if !tsspace.Less(buf[i], buf[i+1]) {
						t.Errorf("worker %d round %d: batch not internally strictly ordered at %d: %v vs %v",
							w, round, i, buf[i], buf[i+1])
					}
				}
				totalTS.Add(int64(n))
				if err := s.Detach(); err != nil {
					t.Errorf("worker %d round %d: detach: %v", w, round, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	// Per-worker hbcheck: a worker's batches are sequential, so its whole
	// stream (across leases and pids) must be strictly ordered.
	for w := range recs {
		if err := hbcheck.Check(recs[w].Events()); err != nil {
			t.Errorf("worker %d: happens-before violated across its batch stream: %v", w, err)
		}
	}

	st := obj.Stats()
	if st.Calls != uint64(totalTS.Load()) {
		t.Errorf("object counted %d calls, workers issued %d timestamps", st.Calls, totalTS.Load())
	}
	if st.Attaches != workers*rounds || st.ActiveSessions != 0 {
		t.Errorf("Stats = %+v, want %d attaches / 0 active", st, workers*rounds)
	}
}

// One-shot churn: many logical clients race for a budget of n timestamps;
// exactly n must win and the rest must see the typed exhaustion error.
func TestOneShotChurnBudgetRace(t *testing.T) {
	const procs = 16
	ctx := context.Background()
	obj := mustNew(t, tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(procs))

	var issued, exhausted atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4*procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := obj.Attach(ctx)
			if err != nil {
				exhausted.Add(1)
				return
			}
			defer s.Detach()
			if _, err := s.GetTS(ctx); err == nil {
				issued.Add(1)
			}
		}()
	}
	wg.Wait()
	if issued.Load() != procs {
		t.Errorf("issued %d timestamps from a budget of %d", issued.Load(), procs)
	}
	if exhausted.Load() != 4*procs-procs {
		t.Errorf("%d clients saw exhaustion, want %d", exhausted.Load(), 3*procs)
	}
}

// Concurrent first leases: 8 goroutines loop Attach → GetTS → Detach on
// a fresh object, so pids are built by whichever attach claims them while
// other goroutines recycle the ones already built. Under -race this checks
// that the claim hands each pid to one session at a time, that a recycled
// pid's stack and count reach its next lease, and that each built pid's
// one meter handle counts every call: collect's totals must be exact. On
// sqrt every pid is leased once, and once all 512 have issued every
// Attach must fail with ErrExhausted.
func TestFirstLeaseRace(t *testing.T) {
	const workers = 8
	ctx := context.Background()
	churn := func(obj *tsspace.Object, rounds int) (calls int64) {
		t.Helper()
		inFlight := make([]atomic.Bool, obj.Procs())
		var total atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; rounds == 0 || r < rounds; r++ {
					s, err := obj.Attach(ctx)
					if errors.Is(err, tsspace.ErrExhausted) && rounds == 0 {
						return
					}
					if err != nil {
						t.Errorf("attach: %v", err)
						return
					}
					if !inFlight[s.Pid()].CompareAndSwap(false, true) {
						t.Errorf("pid %d leased to two live sessions", s.Pid())
					}
					if _, err := s.GetTS(ctx); err != nil {
						t.Errorf("pid %d: getTS: %v", s.Pid(), err)
					} else {
						total.Add(1)
					}
					inFlight[s.Pid()].Store(false)
					s.Detach()
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Minute):
			// A pid built or recycled twice overfills the free channel,
			// and the Detach that finds it full blocks forever.
			t.Fatal("churn did not finish in a minute")
		}
		return total.Load()
	}

	collect := mustNew(t, tsspace.WithProcs(64), tsspace.WithMetering())
	calls := churn(collect, 200)
	if calls != workers*200 {
		t.Errorf("collect: %d calls, want %d", calls, workers*200)
	}
	if u, _ := collect.Space(); u.Reads != uint64(calls)*64 || u.Writes != uint64(calls) {
		t.Errorf("collect: Space = %d reads, %d writes after %d calls, want %d and %d",
			u.Reads, u.Writes, calls, calls*64, calls)
	}

	sqrt := mustNew(t, tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(512), tsspace.WithMetering())
	if calls := churn(sqrt, 0); calls != 512 {
		t.Errorf("sqrt: issued %d timestamps, want the budget of 512", calls)
	}
	if _, err := sqrt.Attach(ctx); !errors.Is(err, tsspace.ErrExhausted) {
		t.Errorf("sqrt: Attach after the budget = %v, want ErrExhausted", err)
	}
	u, _ := sqrt.Space()
	if u.Written >= u.Registers {
		t.Errorf("sqrt: wrote %d of %d registers, want fewer: the sentinel is never written", u.Written, u.Registers)
	}
	t.Logf("collect: %d calls, %d reads; sqrt: %d of %d registers written", calls, calls*64, u.Written, u.Registers)
}
