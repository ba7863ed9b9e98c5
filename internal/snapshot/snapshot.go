// Package snapshot implements the obstruction-free scan of Afek, Attiya,
// Dolev, Gafni, Merritt and Shavit ("Atomic snapshots of shared memory",
// JACM 1993) used by Algorithm 4, line 13 of the paper.
//
// A collect reads each register in order; a scan repeatedly collects until
// two contiguous views are identical (a successful double collect) and is
// linearizable at any point between the last two collects. Scan compares
// the values themselves with reflect.DeepEqual, which is exactly the
// paper's scan and is sound for Algorithm 4 because each value written to
// a given register is distinct (Claim 6.1(b)), so plain registers suffice.
//
// The scan is not wait-free in general, but every use in this module is:
// Algorithm 4 performs at most m−1 writes per getTS (Lemma 6.14), so the
// number of failed collects is bounded. MaxCollects is a defensive backstop
// that converts an impossible livelock into an error.
package snapshot

import (
	"errors"
	"reflect"

	"tsspace/internal/register"
)

// MaxCollects bounds the number of collects a single scan may attempt
// before giving up. In this module's algorithms a scan provably succeeds
// long before the bound; hitting it indicates a broken memory or an
// unbounded writer and is reported as ErrLivelock.
const MaxCollects = 1 << 20

// ErrLivelock is returned when a scan exceeds MaxCollects collects.
var ErrLivelock = errors.New("snapshot: scan exceeded collect budget")

// Collect reads registers [0, mem.Size()) in index order and returns the
// resulting view. A collect alone is not atomic.
func Collect(mem register.Mem) []register.Value {
	view := make([]register.Value, mem.Size())
	for i := range view {
		view[i] = mem.Read(i)
	}
	return view
}

// Scan returns a linearizable view of the registers via double collect with
// value equality (reflect.DeepEqual per register). It is sound when, per
// register, distinct writes install distinguishable values — the invariant
// Algorithm 4 maintains (Claim 6.1(b)).
func Scan(mem register.Mem) ([]register.Value, error) {
	prev := Collect(mem)
	for c := 1; c < MaxCollects; c++ {
		cur := Collect(mem)
		if viewsEqual(prev, cur) {
			return cur, nil
		}
		prev = cur
	}
	return nil, ErrLivelock
}

func viewsEqual(a, b []register.Value) bool {
	for i := range a {
		if !valueEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func valueEqual(a, b register.Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return reflect.DeepEqual(a, b)
}
