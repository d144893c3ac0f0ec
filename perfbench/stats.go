package main

import (
	"math/bits"
	"slices"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean returns the interquartile mean of xs: the mean of its middle
// half once sorted (0 for an empty slice). It drops the slowest quarter
// of rounds, which a host slowdown lands in, like the median does, but
// averages the rest, so it moves less with the schedule-driven spread
// of contended runs.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := len(s) / 4
	s = s[q : len(s)-q]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// subBits is the histogram's sub-bucket precision: each power of two is
// split into 1<<subBits buckets, so a bucket midpoint is within about 3%
// of every value it holds.
const subBits = 4

// hist is a log-linear histogram of nanosecond durations. It is not safe
// for concurrent use; each worker records into its own.
type hist struct {
	counts [64 << subBits]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)<<subBits + int(v>>uint(shift)) - 1<<subBits
}

// bucketMid returns the midpoint of bucket i.
func bucketMid(i int) float64 {
	if i < 1<<subBits {
		return float64(i)
	}
	shift := i>>subBits - 1
	low := uint64(i&(1<<subBits-1)+1<<subBits) << uint(shift)
	return float64(low) + float64(uint64(1)<<uint(shift))/2
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	rank = max(rank, 1)
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.counts) - 1)
}
