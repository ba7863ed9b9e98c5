package tsserve

import (
	"context"
	"testing"
	"time"

	"tsspace"
)

// The reaper never retires a lease with a batch in flight. issue holds
// the lease's mutex for the whole batch, and reapIdle takes only leases
// whose mutex it can take, however stale their activity stamp: retiring
// a running lease would free its pid — and that pid's single-writer
// register — for a second lease while the batch still writes it. Once
// the batch lets go, the next tick reaps the lease.
func TestReaperSparesBatchInFlight(t *testing.T) {
	obj, err := tsspace.New(tsspace.WithAlgorithm("collect"), tsspace.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	// An hour-long TTL keeps the background reaper out: only the test's
	// ticks reap.
	s := NewServer(obj, ServerConfig{SessionTTL: time.Hour})
	t.Cleanup(func() { s.Close(); obj.Close() })
	def, _ := s.resolveNS(DefaultNamespace)
	ws, _, err := s.attach(context.Background(), def, nil)
	if err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(2 * s.sessionTTL)

	ws.mu.Lock() // a batch in flight, held the way issue holds it
	s.reapIdle(past)
	if _, ok := s.lookupIn(def, ws.id); !ok {
		// No Unlock: a reaper that retired the lease has released it.
		t.Fatal("reaper retired a lease with a batch in flight")
	}
	ws.mu.Unlock()
	if got := s.met.reaped.Value(); got != 0 {
		t.Fatalf("tsserve_reaped_sessions_total = %d with the batch in flight, want 0", got)
	}

	s.reapIdle(past)
	if _, ok := s.lookupIn(def, ws.id); ok {
		t.Fatal("reaper kept a lease idle past its TTL once the batch ended")
	}
	if got := s.met.reaped.Value(); got != 1 {
		t.Errorf("tsserve_reaped_sessions_total = %d, want 1", got)
	}
	if active := obj.Stats().ActiveSessions; active != 0 {
		t.Errorf("%d SDK sessions still attached after the reap, want 0", active)
	}
}
