package tsspace_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"tsspace"
)

// A long-lived object with default settings: attach a session, take
// timestamps, compare them.
func ExampleNew() {
	obj, err := tsspace.New() // long-lived "collect" object, 16 processes
	if err != nil {
		log.Fatal(err)
	}
	defer obj.Close()

	ctx := context.Background()
	s, err := obj.Attach(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Detach()

	t1, _ := s.GetTS(ctx)
	t2, _ := s.GetTS(ctx)
	fmt.Println(tsspace.Less(t1, t2), tsspace.Less(t2, t1))
	// Output: true false
}

// compare(t1, t2) reads no register: Less is the order of every object,
// applied locally to timestamps from any session or transport.
func ExampleLess() {
	fmt.Println(tsspace.Less(tsspace.Timestamp{Rnd: 1, Turn: 1}, tsspace.Timestamp{Rnd: 1, Turn: 2}))
	fmt.Println(tsspace.Less(tsspace.Timestamp{Rnd: 2}, tsspace.Timestamp{Rnd: 1, Turn: 9}))
	// Output:
	// true
	// false
}

// Batches amortize the session plumbing: one GetTSBatch fills a
// caller-owned slice with back-to-back timestamps — each happens-before
// the next — without allocating.
func ExampleSession_GetTSBatch() {
	obj, err := tsspace.New() // long-lived "collect" object, 16 processes
	if err != nil {
		log.Fatal(err)
	}
	defer obj.Close()

	ctx := context.Background()
	s, err := obj.Attach(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Detach()

	batch := make([]tsspace.Timestamp, 4)
	n, err := s.GetTSBatch(ctx, batch)
	if err != nil {
		log.Fatal(err)
	}
	ordered := true
	for i := 0; i+1 < n; i++ {
		ordered = ordered && tsspace.Less(batch[i], batch[i+1])
	}
	fmt.Println(n, ordered)
	// Output: 4 true
}

// A one-shot object issues one timestamp per attached process: n sessions
// get n totally ordered timestamps, and the budget is enforced with typed
// errors.
func ExampleSession_GetTS() {
	obj, err := tsspace.New(tsspace.WithAlgorithm("sqrt"), tsspace.WithProcs(4))
	if err != nil {
		log.Fatal(err)
	}
	defer obj.Close()

	ctx := context.Background()
	var prev tsspace.Timestamp
	for i := 0; i < 4; i++ {
		s, err := obj.Attach(ctx)
		if err != nil {
			log.Fatal(err)
		}
		ts, err := s.GetTS(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if i > 0 {
			fmt.Println(tsspace.Less(prev, ts))
		}
		prev = ts
		s.Detach()
	}
	_, err = obj.Attach(ctx)
	fmt.Println(errors.Is(err, tsspace.ErrExhausted))
	// Output:
	// true
	// true
	// true
	// true
}
