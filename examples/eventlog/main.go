// Eventlog: order audit-log records produced by a churning pool of workers
// with a long-lived shared-memory timestamp object, verify the
// happens-before property with the checker, and contrast with Lamport and
// vector clocks (which need cooperative message stamping rather than
// shared registers). The churn is real session churn through the public
// SDK: nine logical workers funnel through an object with only three
// paper-processes — a worker that finishes its actions detaches and its
// process id is leased to the next one — yet the timestamps stay totally
// ordered across the membership changes, because the object's guarantees
// are about the process *namespace*, not the live set.
//
// Run with:
//
//	go run ./examples/eventlog
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"

	"tsspace"
	"tsspace/internal/clock"
	"tsspace/internal/hbcheck"
)

// record is one audit-log entry: (worker, action, timestamp).
type record struct {
	worker, action int
	ts             tsspace.Timestamp
}

func main() {
	const workers = 9          // logical workers over the run
	const actionsPerWorker = 4 // getTS() calls per worker
	const poolWidth = 3        // paper-processes: live workers at any moment

	// The dense long-lived object: n−1 registers for n processes. Process
	// n−1 is the silent one — it never writes a register.
	obj, err := tsspace.New(
		tsspace.WithAlgorithm("dense"),
		tsspace.WithProcs(poolWidth),
		tsspace.WithMetering(),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer obj.Close()
	fmt.Printf("long-lived timestamps for %d workers from %d registers (n−1), ≤%d workers live at once\n\n",
		workers, obj.Registers(), poolWidth)

	// Each worker attaches (blocking until a process id frees up), stamps
	// all its actions with one GetTSBatch — the SessionAPI batch surface:
	// one entry check, caller-owned buffer, every timestamp happens-before
	// the next — and detaches. The recorder stamps the batch's interval so
	// the happens-before property can be checked across the whole run.
	var (
		rec hbcheck.Recorder
		lg  []record
		mu  sync.Mutex
		wg  sync.WaitGroup
		ctx = context.Background()
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := obj.Attach(ctx)
			if err != nil {
				log.Fatal(err)
			}
			defer s.Detach()
			batch := make([]tsspace.Timestamp, actionsPerWorker)
			start := rec.Begin()
			if _, err := s.GetTSBatch(ctx, batch); err != nil {
				log.Fatal(err)
			}
			mu.Lock()
			for a, ts := range batch {
				// Timestamps of one batch share the batch's interval; their
				// within-batch order is guaranteed by GetTSBatch itself.
				rec.End(w, a, start, ts)
				lg = append(lg, record{worker: w, action: a, ts: ts})
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	// The specification holds on the real execution, across joins/leaves
	// and process-id recycling.
	if err := hbcheck.Check(rec.Events()); err != nil {
		log.Fatalf("happens-before violated: %v", err)
	}
	fmt.Println("happens-before property verified over all", len(lg), "getTS() calls")

	sort.Slice(lg, func(i, j int) bool { return tsspace.Less(lg[i].ts, lg[j].ts) })
	fmt.Println("\nlog in timestamp order (first 10):")
	for _, r := range lg[:10] {
		fmt.Printf("  %v worker %d action-%d\n", r.ts, r.worker, r.action)
	}

	u, _ := obj.Usage()
	st := obj.Stats()
	fmt.Printf("\nregisters written: %d (the silent process %d wrote none)\n", u.Written, poolWidth-1)
	fmt.Printf("%s · n=%d: %d getTS() calls over %d sessions, %d reads / %d writes\n\n",
		obj.Algorithm(), obj.Procs(), st.Calls, st.Attaches, u.Reads, u.Writes)

	// Contrast: the same ordering problem in a message-passing world.
	lamportVectorDemo()
}

// lamportVectorDemo shows why the shared-memory objects are the harder
// problem: logical clocks need every interaction stamped cooperatively.
func lamportVectorDemo() {
	fmt.Println("message-passing contrast (no shared registers):")
	var a, b clock.Lamport
	t1 := a.Send()      // a → b
	t2 := b.Receive(t1) // causal chain: stamps increase
	fmt.Printf("  Lamport: send %d → receive %d (causality preserved one way)\n", t1, t2)

	va, vb := clock.NewVector(2, 0), clock.NewVector(2, 1)
	e1 := va.Tick()
	e2 := vb.Tick()
	fmt.Printf("  Vector: independent events compare %v — exact causality, but\n", clock.CompareVec(e1, e2))
	fmt.Println("  only because both sides maintain and exchange clocks; the paper's")
	fmt.Println("  objects order events with nothing but reads and writes of registers.")
}
