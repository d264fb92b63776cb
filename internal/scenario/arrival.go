package scenario

// arrival.go: seeded arrival processes in pure integer arithmetic.
//
// The obvious way to draw exponential gaps — math.Rand.ExpFloat64 — goes
// through the host's floating-point unit, where fused-multiply-add
// contraction and libm differences can change the last bits between
// compilers and architectures. A scenario's percentiles must be
// byte-identical everywhere, so the sampler here is integer-only: a
// 16.16 fixed-point binary logarithm computed by mantissa squaring, the
// textbook digit-recurrence method. The price is a truncated tail (gaps
// cap at 30·ln2 ≈ 20.8 means, probability mass ~1e-9) and ~2⁻¹⁶ relative
// quantisation — both far below the histogram's own bucket width.

import (
	"math/bits"
	"math/rand"

	"repro/internal/vtime"
)

// Arrival names a seeded arrival process shape.
type Arrival string

const (
	// Poisson arrivals: independent exponential inter-arrival gaps.
	Poisson Arrival = "poisson"
	// Bursty arrivals: sessions arrive in trains of burstLen — a long
	// exponential gap buys the whole train, then its members follow at
	// half the mean gap. The long-run rate matches Poisson at the same
	// MeanGap; the short-run rate inside a train is ~2× that.
	Bursty Arrival = "bursty"
)

// ln2fp is ln(2) in 16.16 fixed point.
const ln2fp = 45426

// log2fp returns log2(u) in 16.16 fixed point for u ≥ 1.
func log2fp(u uint64) uint64 {
	k := uint64(bits.Len64(u) - 1)
	// Normalise the mantissa to [2^30, 2^31) and pull 16 fractional
	// bits by repeated squaring.
	var x uint64
	if k >= 30 {
		x = u >> (k - 30)
	} else {
		x = u << (30 - k)
	}
	var frac uint64
	for i := 0; i < 16; i++ {
		x = x * x >> 30
		frac <<= 1
		if x >= 1<<31 {
			frac |= 1
			x >>= 1
		}
	}
	return k<<16 | frac
}

// expGap draws an exponentially distributed gap with the given mean:
// -mean·ln(U) for U uniform on (0,1], evaluated as
// mean·(30-log2(u))·ln2 over a 30-bit uniform integer u.
func expGap(r *rand.Rand, mean vtime.Cycles) vtime.Cycles {
	u := uint64(r.Int63n(1<<30)) + 1
	neg := 30<<16 - log2fp(u) // -log2(u/2^30) in 16.16
	return vtime.Cycles((uint64(mean) * neg >> 16) * ln2fp >> 16)
}

// arrivalTimes precomputes the n session arrival instants of the
// process. Instants are non-decreasing by construction.
func arrivalTimes(r *rand.Rand, kind Arrival, n int, mean vtime.Cycles) []vtime.Cycles {
	out := make([]vtime.Cycles, n)
	var t vtime.Cycles
	for i := 0; i < n; i++ {
		switch {
		case kind == Bursty && i%burstLen == 0:
			// The gap between trains carries half the train's rate
			// budget; in-train gaps at mean/2 carry the other half.
			t += expGap(r, mean*burstLen/2)
		case kind == Bursty:
			t += expGap(r, mean/2)
		default:
			t += expGap(r, mean)
		}
		out[i] = t
	}
	return out
}
