// Phases: watch Algorithm 4 (§6 of the paper) consume register space
// phase by phase, through the public SDK. M sequential clients each take
// one timestamp from the one-shot sqrt object; after every call the
// example prints the object's write footprint (from WithMetering's space
// measure and written set). A register is non-⊥ exactly once it has been
// written, so the footprint bar is the phase structure: phase k runs
// while k registers are non-⊥, and a timestamp (rnd, turn) returned in
// phase k has rnd ∈ {k, k+1}.
//
// The walkthrough verifies the SDK-observable §6 claims: the written set
// grows monotonically from the left, stays within the ⌈2√M⌉ budget
// (Lemma 6.5), and the last register is the sentinel that is never
// written (Lemma 6.14); sqrt's own tests check that it is read. The
// deeper per-phase invalidation accounting (Claims 6.10/6.13) needs the
// implementation's tracer hooks: see `go run ./cmd/tscover -phases`.
//
// Run with:
//
//	go run ./examples/phases
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"tsspace"
)

func main() {
	const m = 10
	obj, err := tsspace.New(
		tsspace.WithAlgorithm("sqrt"), // one-shot: M = n = procs
		tsspace.WithProcs(m),
		tsspace.WithMetering(),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer obj.Close()

	fmt.Printf("Algorithm 4 with M = %d calls: %d registers (⌈2√M⌉), last one a sentinel\n\n",
		m, obj.Registers())
	fmt.Println("call  timestamp  phase  registers  (■ = written/non-⊥; phase k ⇔ k registers non-⊥)")

	ctx := context.Background()
	var last tsspace.Timestamp
	for call := 1; call <= m; call++ {
		s, err := obj.Attach(ctx)
		if err != nil {
			log.Fatal(err)
		}
		ts, err := s.GetTS(ctx)
		if err != nil {
			log.Fatal(err)
		}
		s.Detach()

		sp, _ := obj.Space()
		fmt.Printf("%4d  %-9v  %5d  %s\n", call, ts, sp.Written, bar(obj))

		// Sequential calls are happens-before ordered: strictly increasing.
		if call > 1 && !tsspace.Less(last, ts) {
			log.Fatalf("call %d: %v not after %v", call, ts, last)
		}
		last = ts
	}

	sp, _ := obj.Space()
	written := obj.WrittenSet()
	fmt.Printf("\nregisters written: %d of %d — within the ⌈2√M⌉ budget (Lemma 6.5)\n",
		sp.Written, sp.Registers)
	// The written set is a prefix 0..k-1: phases never skip a register.
	for i, r := range written {
		if r != i {
			log.Fatalf("register %d written before register %d: phases do not skip", r, i)
		}
	}
	if n := len(written); n > 0 && written[n-1] == sp.Registers-1 {
		log.Fatal("sentinel register was written — Lemma 6.14 violated")
	}
	fmt.Printf("sentinel register %d: written never (Lemma 6.14)\n", sp.Registers-1)
	fmt.Println("written set is a prefix: phases consume registers strictly left to right")
}

// bar renders obj's write footprint: ■ for written (non-⊥) registers, ·
// for ⊥.
func bar(obj *tsspace.Object) string {
	written := obj.WrittenSet()
	var b strings.Builder
	next := 0 // index into the increasing written set
	for i := 0; i < obj.Registers(); i++ {
		if next < len(written) && written[next] == i {
			b.WriteString("■")
			next++
		} else {
			b.WriteString("·")
		}
	}
	return b.String()
}
