package main

import "math/bits"

// subBits sets the histogram's resolution: 2^subBits linear sub-buckets
// per power of two, so a bucket is at most 1/64 (1.6%) of its lower
// bound wide. Values inside a bucket are interpolated by rank, so a
// percentile reads as a continuous number rather than a bucket edge.
const subBits = 6

// latHist is a fixed-size log-linear histogram of nanosecond durations.
// It deliberately duplicates internal/hist rather than using it: the
// server records its handler times there, so a change to the program's
// histogram must not also change the instrument that judges it; and
// internal/hist reports a bucket's midpoint, which moves a 20 µs median
// in 2.5% steps, where this one interpolates within the bucket. Its
// fixed size and plain counters keep the benchmark's own memory out of
// rss_peak_mib's trend and atomics out of the sessions' loops.
type latHist struct {
	counts [(64 - subBits) << subBits]uint32
	n      uint64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	return (e+1)<<subBits + int(uint64(v)>>e) - 1<<subBits
}

// bucketRange returns the lower bound and width of bucket i.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	e := i>>subBits - 1
	m := uint64(i&(1<<subBits-1)) + 1<<subBits
	return float64(m << e), float64(uint64(1) << e)
}

func (h *latHist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, or 0 for
// an empty histogram.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}
