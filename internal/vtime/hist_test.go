package vtime

import (
	"math/rand"
	"testing"
)

func TestHistBucketRoundTrip(t *testing.T) {
	// Every bucket's upper bound must map back to that bucket, and the
	// next value must map to a later bucket — the buckets tile.
	for b := 0; b < histBuckets-histSubBuckets; b++ {
		u := histUpperBound(b)
		if u >= 1<<62 {
			break // u+1 below would overflow uint64 at the top octave
		}
		if got := histBucketOf(u); got != b {
			t.Fatalf("bucket %d: upper bound %d maps to bucket %d", b, u, got)
		}
		if got := histBucketOf(u + 1); got != b+1 {
			t.Fatalf("bucket %d: %d maps to bucket %d, want %d", b, u+1, got, b+1)
		}
	}
}

func TestHistLinearRegionExact(t *testing.T) {
	// Small values are recorded exactly.
	var h Hist
	for v := Cycles(0); v < 2*histSubBuckets; v++ {
		h.Observe(v)
	}
	for i := uint64(1); i <= h.N(); i++ {
		want := Cycles(i - 1)
		if got := h.Quantile(i, h.N()); got != want {
			t.Fatalf("quantile %d/%d = %v, want %v", i, h.N(), got, want)
		}
	}
}

func TestHistRelativeError(t *testing.T) {
	// Bucket upper bounds over-report by at most 2^-histMantissaBits.
	var h Hist
	const v = 123_456_789
	h.Observe(v)
	got := uint64(h.Quantile(1, 2))
	if got < v {
		t.Fatalf("quantile under-reports: %d < %d", got, v)
	}
	if got > v+v>>histMantissaBits {
		t.Fatalf("quantile error too large: %d for sample %d", got, v)
	}
}

func TestHistQuantilesOrderedAndClamped(t *testing.T) {
	var h Hist
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000; i++ {
		h.Observe(Cycles(r.Intn(1_000_000)))
	}
	p50 := h.Quantile(50, 100)
	p99 := h.Quantile(99, 100)
	p999 := h.Quantile(999, 1000)
	if p50 > p99 || p99 > p999 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v p999=%v", p50, p99, p999)
	}
	if p999 > h.Max() {
		t.Fatalf("p999 %v exceeds observed max %v", p999, h.Max())
	}
	if h.Quantile(1, 1) != h.Max() {
		t.Fatalf("p100 %v != max %v", h.Quantile(1, 1), h.Max())
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Quantile(1, 2) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}
