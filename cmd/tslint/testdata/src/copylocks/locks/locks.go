// Package locks returns values that embed a mutex by value. tslint
// fixture for the copylocks analyzer; go vet reports the other copies.
package locks

import "sync"

// Guarded embeds a mutex by value.
type Guarded struct {
	Mu sync.Mutex
	N  int
}

// Fresh hands the caller a copy of a lock-bearing value.
func Fresh() Guarded { // want `result passes a lock by value`
	return Guarded{}
}

// Maker returns a function literal with the same result.
var Maker = func() Guarded { // want `result passes a lock by value`
	return Guarded{}
}

// FreshPtr hands out the lock by pointer, which is fine.
func FreshPtr() *Guarded { return &Guarded{} }
