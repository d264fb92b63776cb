package vtime

import "math/bits"

// Hist is a deterministic fixed-bucket latency histogram over Cycles.
// Buckets follow an exponent/mantissa layout (histMantissaBits mantissa
// bits per power-of-two octave), so relative bucket error is bounded by
// 2^-histMantissaBits ≈ 12.5% while the whole structure stays integer:
// recording and quantile extraction involve no floating point at all,
// which is what makes scenario percentiles byte-for-byte reproducible
// across hosts and Go releases (FMA contraction and libm differences
// cannot enter). The zero value is an empty histogram ready to use.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	max    Cycles
}

const (
	// histMantissaBits sets the sub-bucket resolution: 2^5 = 32 linear
	// sub-buckets per octave, a worst-case quantile error of ~3%.
	histMantissaBits = 5
	histSubBuckets   = 1 << histMantissaBits
	// histBuckets covers the full uint64 range: values below
	// 2*histSubBuckets index linearly, every further octave adds
	// histSubBuckets buckets. 64 octaves suffice with margin.
	histBuckets = (64 + 2) * histSubBuckets
)

// histBucketOf maps a value to its bucket index.
func histBucketOf(v uint64) int {
	if v < 2*histSubBuckets {
		return int(v) // exact linear region
	}
	e := bits.Len64(v) - 1 - histMantissaBits // octave shift, ≥ 1
	return int(uint64(e+1)<<histMantissaBits + (v>>uint(e))&(histSubBuckets-1))
}

// histUpperBound is the largest value mapping to the bucket — the value
// Quantile reports for it. Exact inverse of histBucketOf's linear region;
// in the exponential region it reconstructs exponent and mantissa.
func histUpperBound(b int) uint64 {
	if b < 2*histSubBuckets {
		return uint64(b)
	}
	e := b>>histMantissaBits - 1
	m := uint64(b & (histSubBuckets - 1))
	return (histSubBuckets+m+1)<<uint(e) - 1
}

// Observe records one sample.
func (h *Hist) Observe(c Cycles) {
	h.counts[histBucketOf(uint64(c))]++
	h.n++
	h.sum += uint64(c)
	if c > h.max {
		h.max = c
	}
}

// N reports the number of recorded samples.
func (h *Hist) N() uint64 { return h.n }

// Max reports the largest recorded sample, zero when empty.
func (h *Hist) Max() Cycles { return h.max }

// Mean reports the integer mean of the recorded samples, zero when empty.
func (h *Hist) Mean() Cycles {
	if h.n == 0 {
		return 0
	}
	return Cycles(h.sum / h.n)
}

// Quantile reports the q = num/den quantile (e.g. Quantile(999, 1000) for
// p99.9) as the upper bound of the bucket holding the sample of rank
// ceil(q·N), clamped to the observed maximum. Empty histograms report 0.
// The computation is pure integer arithmetic over the fixed buckets, so
// two histograms with equal contents report equal quantiles everywhere.
func (h *Hist) Quantile(num, den uint64) Cycles {
	if h.n == 0 || den == 0 {
		return 0
	}
	rank := (h.n*num + den - 1) / den
	if rank == 0 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			u := Cycles(histUpperBound(b))
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}
