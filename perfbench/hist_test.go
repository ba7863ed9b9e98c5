package main

import (
	"math"
	"testing"
)

func TestBucketRangeCoversValue(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 20_000, 1 << 40, 1<<62 + 12345} {
		lo, w := bucketRange(bucketOf(v))
		if f := float64(v); f < lo || f >= lo+w {
			t.Errorf("value %d: bucket [%g, %g)", v, lo, lo+w)
		}
		if v >= 1<<subBits && w/lo > 1.0/(1<<subBits) {
			t.Errorf("value %d: bucket width %g is over 1/%d of %g", v, w, 1<<subBits, lo)
		}
	}
}

func TestQuantileWithinBucketWidth(t *testing.T) {
	var h latHist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 10)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 1_000_000
		if got := h.quantile(q); math.Abs(got-want)/want > 1.0/(1<<subBits) {
			t.Errorf("q%g = %g, want %g within %.1f%%", q, got, want, 100.0/(1<<subBits))
		}
	}
	var empty latHist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %g, want 0", got)
	}
}
