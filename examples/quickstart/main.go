// Quickstart: give n goroutines one timestamp each from the paper's
// √M-register one-shot object (Algorithms 3–4) and use compare() to
// reconstruct a global order consistent with real time. The run goes
// through the public tsspace SDK: New picks the algorithm by registry
// name, Attach leases one of the n paper-processes to each goroutine, and
// GetTS hides the memory/pid/seq plumbing entirely.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"

	"tsspace"
)

func main() {
	const n = 24
	obj, err := tsspace.New(
		tsspace.WithAlgorithm("sqrt"), // one-shot object: ⌈2√n⌉ registers
		tsspace.WithProcs(n),
		tsspace.WithMetering(), // record the space footprint for the report
	)
	if err != nil {
		log.Fatal(err)
	}
	defer obj.Close()

	fmt.Printf("one-shot timestamp object for %d processes using %d registers (⌈2√n⌉)\n\n",
		obj.Procs(), obj.Registers())

	// n concurrent clients: each attaches a session, takes its one
	// timestamp, and detaches.
	type issued struct {
		client int
		ts     tsspace.Timestamp
	}
	ctx := context.Background()
	out := make([]issued, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := obj.Attach(ctx)
			if err != nil {
				log.Fatal(err)
			}
			defer s.Detach()
			ts, err := s.GetTS(ctx)
			if err != nil {
				log.Fatal(err)
			}
			out[c] = issued{client: c, ts: ts}
		}(c)
	}
	wg.Wait()

	// compare() is a total preorder on the issued timestamps; sorting by it
	// yields an order consistent with happens-before.
	sort.Slice(out, func(i, j int) bool { return tsspace.Less(out[i].ts, out[j].ts) })

	fmt.Println("timestamps in compare() order (rnd, turn):")
	for _, iss := range out {
		fmt.Printf("  client %-3d → %v\n", iss.client, iss.ts)
	}

	u, _ := obj.Usage()
	fmt.Printf("\nregisters written: %d of %d allocated (sentinel stays ⊥)\n", u.Written, u.Registers)
	fmt.Printf("total reads %d, writes %d\n", u.Reads, u.Writes)
	st := obj.Stats()
	fmt.Printf("%s · n=%d: %d getTS() calls over %d sessions\n",
		obj.Algorithm(), obj.Procs(), st.Calls, st.Attaches)
}
