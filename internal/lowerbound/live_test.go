package lowerbound_test

import (
	"fmt"
	"testing"

	"tsspace/internal/engine"
	"tsspace/internal/hbcheck"
	"tsspace/internal/lowerbound"
	"tsspace/internal/sched"
	"tsspace/internal/timestamp/collect"
)

// The confrontation sweep: the live adversaries must steer a real
// algorithm execution to at least the analytic certificate at every n in
// the table, and the executions they produce must still be
// happens-before clean — an adversary that breaks the algorithm instead
// of covering it proves nothing.
func TestLiveAdversaryConfrontation(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			const rounds = 3

			var rec *hbcheck.Recorder
			factory := func(wl engine.Workload) sched.Factory {
				return func() *sched.System {
					sys, r, _ := engine.NewSimSystem(engine.Config{
						Alg: collect.New(n), World: engine.Simulated, N: n, Workload: wl,
					})
					rec = r
					return sys
				}
			}

			one, err := lowerbound.LiveOneShot(factory(engine.OneShot{}))
			if err != nil {
				t.Fatalf("LiveOneShot: %v", err)
			}
			if one.Margin < 0 {
				t.Errorf("%s: covered %d < certificate %d", one.Adversary, one.MaxCovered, one.Certificate)
			}
			if err := hbcheck.Check(rec.Events()); err != nil {
				t.Errorf("%s execution violates happens-before: %v", one.Adversary, err)
			}
			t.Logf("%s", one)

			ll, err := lowerbound.LiveLongLived(factory(engine.LongLived{CallsPerProc: rounds + 1}), rounds)
			if err != nil {
				t.Fatalf("LiveLongLived: %v", err)
			}
			if ll.Margin < 0 {
				t.Errorf("%s: covered %d < certificate %d", ll.Adversary, ll.MaxCovered, ll.Certificate)
			}
			if ll.Rounds != rounds {
				t.Errorf("%s executed %d block-write rounds, want %d", ll.Adversary, ll.Rounds, rounds)
			}
			if ll.Recycled == 0 {
				t.Errorf("%s recycled no released process; the clone-and-cover loop never bit", ll.Adversary)
			}
			if err := hbcheck.Check(rec.Events()); err != nil {
				t.Errorf("%s execution violates happens-before: %v", ll.Adversary, err)
			}
			t.Logf("%s", ll)
		})
	}
}
