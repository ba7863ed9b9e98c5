// Renaming: order-based renaming from one-shot timestamps — one of the
// "inherently one-time" applications motivating the one-shot object (§1,
// §3 of the paper; cf. Attiya–Fouren adaptive renaming). Each process with
// a large original identifier attaches an SDK session and takes one
// timestamp; its new name is the rank of its timestamp among all issued
// ones. The object's one-shot budget is the renaming capacity: an
// (n+1)-th client is refused with the typed exhaustion error.
//
// Because concurrent getTS() calls may receive equal timestamps (the
// specification only constrains happens-before ordered pairs), ranks are
// made unique by breaking ties with the original identifier — the standard
// trick (also used by the bakery algorithm's (number, id) pairs).
//
// Run with:
//
//	go run ./examples/renaming
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"

	"tsspace"
)

func main() {
	const n = 10

	// Processes arrive with sparse original ids from a huge namespace.
	rng := rand.New(rand.NewSource(7))
	origIDs := make([]int, n)
	seen := map[int]bool{}
	for i := range origIDs {
		for {
			id := rng.Intn(1 << 30)
			if !seen[id] {
				seen[id] = true
				origIDs[i] = id
				break
			}
		}
	}

	// The §5 simple one-shot object: ⌈n/2⌉ two-writer registers. The SDK's
	// register stack enforces the algorithm's two-writer discipline.
	obj, err := tsspace.New(
		tsspace.WithAlgorithm("simple"),
		tsspace.WithProcs(n),
		tsspace.WithMetering(),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer obj.Close()
	fmt.Printf("renaming %d processes through %d registers (⌈n/2⌉)\n\n", n, obj.Registers())

	type slot struct {
		orig int
		ts   tsspace.Timestamp
	}
	ctx := context.Background()
	slots := make([]slot, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
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
			slots[i] = slot{origIDs[i], ts}
		}(i)
	}
	wg.Wait()

	// New name = rank by (timestamp, original id).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := slots[order[a]], slots[order[b]]
		if tsspace.Less(sa.ts, sb.ts) {
			return true
		}
		if tsspace.Less(sb.ts, sa.ts) {
			return false
		}
		return sa.orig < sb.orig // concurrent tie: break by original id
	})

	names := make(map[int]int) // orig -> new name
	for rank, idx := range order {
		names[slots[idx].orig] = rank + 1
	}

	fmt.Println("orig id      → timestamp → new name")
	for _, idx := range order {
		s := slots[idx]
		fmt.Printf("  %10d → %-8v → %d\n", s.orig, s.ts, names[s.orig])
	}

	// The target namespace is exactly [1, n]: tight renaming.
	used := map[int]bool{}
	for _, name := range names {
		if name < 1 || name > n || used[name] {
			log.Fatalf("renaming broken: name %d", name)
		}
		used[name] = true
	}
	u, _ := obj.Space()
	fmt.Printf("\nall %d names unique in [1, %d]; registers written: %d\n", n, n, u.Written)

	// One-shot means one-time: the names are spent.
	if _, err := obj.Attach(ctx); errors.Is(err, tsspace.ErrExhausted) {
		fmt.Println("an 11th client is refused: the one-shot namespace is exhausted")
	}
}
