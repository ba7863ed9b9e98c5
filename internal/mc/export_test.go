package mc

import "tsspace/internal/sched"

// testKeys is the one value table behind CanonicalKey, so keys from
// different calls compare like keys of one Count.
var testKeys = keyer{}

// CanonicalKey exposes the Foata-normal-form fingerprint to the external
// test package, so the differential soundness test can compare the class
// sets visited by POR and naive exploration.
func CanonicalKey(trace []sched.Op) string { return testKeys.key(trace) }
