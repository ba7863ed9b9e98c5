// FCFS: first-come-first-served request ordering — the classical doorway
// application of timestamps from the paper's introduction (Lamport's
// bakery, Ricart–Agrawala). Each request takes a timestamp in its doorway;
// the dispatcher serves requests in compare() order. The FCFS guarantee is
// exactly the happens-before property: if request A's doorway completes
// before request B's begins, A is served before B. The doorway traffic
// goes through the public SDK: each client holds one session on a
// long-lived "collect" object and requests repeatedly under full
// contention.
//
// Run with:
//
//	go run ./examples/fcfs
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"

	"tsspace"
)

// request is one doorway: (client, round, timestamp).
type request struct {
	client, round int
	ts            tsspace.Timestamp
}

func main() {
	const clients = 6
	const rounds = 3

	obj, err := tsspace.New(tsspace.WithAlgorithm("collect"), tsspace.WithProcs(clients))
	if err != nil {
		log.Fatal(err)
	}
	defer obj.Close()

	ctx := context.Background()
	queue := make([]request, 0, clients*rounds)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := obj.Attach(ctx) // the client's doorway session
			if err != nil {
				log.Fatal(err)
			}
			defer s.Detach()
			for r := 0; r < rounds; r++ {
				ts, err := s.GetTS(ctx)
				if err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				queue = append(queue, request{client: c, round: r, ts: ts})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// The dispatcher serves in timestamp order.
	sort.Slice(queue, func(i, j int) bool { return tsspace.Less(queue[i].ts, queue[j].ts) })

	fmt.Printf("served %d requests from %d clients FCFS via %d registers:\n\n",
		len(queue), clients, obj.Registers())
	for i, q := range queue {
		fmt.Printf("  %2d. %v client %d round %d\n", i+1, q.ts, q.client, q.round)
	}

	// FCFS check: a client's own requests must be served in round order
	// (each round's doorway happens before the next round's).
	lastRound := make(map[int]int)
	for _, q := range queue {
		if prev, ok := lastRound[q.client]; ok && q.round < prev {
			log.Fatalf("FCFS violated: client %d round %d served after round %d", q.client, q.round, prev)
		}
		lastRound[q.client] = q.round
	}
	fmt.Println("\nper-client FCFS order verified")
}
