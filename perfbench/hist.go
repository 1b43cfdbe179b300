package main

import (
	"fmt"
	"math"
	"math/bits"
)

// histSub is the number of log-spaced buckets per power of two: a
// bucket spans at most 1/histSub of its octave, about 3% of the value.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
)

// minBeyond is the fewest samples a reported percentile must have
// above it; a percentile with less evidence is refused.
const minBeyond = 10

// Hist is a log-bucketed latency histogram over non-negative integer
// samples (nanoseconds here). Values below histSub get one bucket
// each; above that every octave is split into histSub equal buckets.
// It never allocates after the first Record of a new octave.
type Hist struct {
	counts []uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 - histSubBits // octave above the linear range
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// bucketRange returns the half-open value range [lo, hi) of bucket b.
func bucketRange(b int) (lo, hi uint64) {
	if b < histSub {
		return uint64(b), uint64(b) + 1
	}
	e := b/histSub - 1
	m := uint64(b%histSub + histSub)
	return m << uint(e), (m + 1) << uint(e)
}

// Record adds one sample.
func (h *Hist) Record(v uint64) {
	b := bucketOf(v)
	if b >= len(h.counts) {
		grown := make([]uint64, b+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	h.n++
}

// Merge adds every sample of o.
func (h *Hist) Merge(o *Hist) {
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the q-quantile (0 < q < 1), interpolated linearly
// by rank inside its bucket, and the number of samples above that
// rank. It refuses — returns an error — when fewer than minBeyond
// samples lie beyond the percentile, since such a tail is one outlier
// away from a different answer.
func (h *Hist) Quantile(q float64) (value float64, beyond uint64, err error) {
	if q <= 0 || q >= 1 {
		return 0, 0, fmt.Errorf("hist: quantile %v outside (0,1)", q)
	}
	rank := uint64(math.Ceil(q * float64(h.n))) // 1-based rank of the quantile sample
	if rank == 0 {
		rank = 1
	}
	beyond = h.n - rank
	if h.n == 0 || beyond < minBeyond {
		return 0, beyond, fmt.Errorf("hist: p%g of %d samples has %d beyond it, need %d",
			q*100, h.n, beyond, minBeyond)
	}
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := bucketRange(b)
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return float64(lo) + frac*float64(hi-lo), beyond, nil
		}
		seen += c
	}
	panic("hist: rank beyond sample count") // unreachable: rank <= n
}
