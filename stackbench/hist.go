package main

import "math/bits"

// hist is a log-linear latency histogram: 32 sub-buckets per power of
// two (at most 1/32 relative bucket width). Quantiles interpolate within
// the bucket, so they keep every digit instead of snapping to a bucket
// edge.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 5
	subBuckets  = 1 << subBits
	histBuckets = (64 - subBits) * subBuckets
)

func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - subBits
	return (shift+1)*subBuckets + int((v>>shift)&(subBuckets-1))
}

// bucketSpan returns bucket i's lowest value and width.
func bucketSpan(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	shift := i/subBuckets - 1
	return float64(uint64(subBuckets|i%subBuckets) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ns (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, w := bucketSpan(i)
			return lo + w*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, w := bucketSpan(histBuckets - 1)
	return lo + w
}
