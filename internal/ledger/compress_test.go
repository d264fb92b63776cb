package ledger

// The SHA-NI kernel against crypto/sha256: leafHash and nodeHash must give
// sha256.Sum256's bytes for every record and every pair of subtree hashes.
// The edge inputs are all-zero and all-one records and hashes and the
// witness streams' records; the rest are seeded random. The CI log says
// which branch the runner took.

import (
	"crypto/sha256"
	"math/rand"
	"testing"
)

func refLeaf(rec []byte) [HashBytes]byte {
	return sha256.Sum256(append([]byte{0x00}, rec...))
}

func refNode(l, r [HashBytes]byte) [HashBytes]byte {
	return sha256.Sum256(append(append([]byte{0x01}, l[:]...), r[:]...))
}

func TestLedgerHashKernel(t *testing.T) {
	if !useSHANI {
		t.Skip("kernel not selected: this is a non-amd64 or -tags purego build, or the CPU lacks SHA, SSSE3 or SSE4.1; leafHash and nodeHash call sha256.Sum256")
	}
	t.Log("SHA-NI kernel selected: leafHash and nodeHash compress their padded blocks directly")

	var zero, ones [HashBytes]byte
	for i := range ones {
		ones[i] = 0xFF
	}
	recs := [][]byte{zero[:RecordBytes], ones[:RecordBytes]}
	for _, n := range witnessLens {
		for _, ev := range genEvents(n, uint64(n)+1) {
			recs = append(recs, appendRecord(nil, ev))
		}
	}
	edges := [][HashBytes]byte{zero, ones}
	for _, rec := range recs {
		got := leafHash(rec)
		if want := refLeaf(rec); got != want {
			t.Fatalf("leafHash(%x) = %x, sha256 gives %x", rec, got, want)
		}
		if len(edges) < 64 {
			edges = append(edges, got)
		}
	}
	for _, l := range edges {
		for _, r := range edges {
			if got, want := nodeHash(l, r), refNode(l, r); got != want {
				t.Fatalf("nodeHash(%x, %x) = %x, sha256 gives %x", l, r, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(35))
	rec := make([]byte, RecordBytes)
	var l, r [HashBytes]byte
	for i := 0; i < 100_000; i++ {
		rng.Read(rec)
		if got, want := leafHash(rec), refLeaf(rec); got != want {
			t.Fatalf("random leaf %d: leafHash(%x) = %x, sha256 gives %x", i, rec, got, want)
		}
		rng.Read(l[:])
		rng.Read(r[:])
		if got, want := nodeHash(l, r), refNode(l, r); got != want {
			t.Fatalf("random node %d: nodeHash(%x, %x) = %x, sha256 gives %x", i, l, r, got, want)
		}
	}

	if a := testing.AllocsPerRun(100, func() { l = leafHash(rec) }); a != 0 {
		t.Errorf("leafHash allocates %.1f objects a call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { l = nodeHash(l, r) }); a != 0 {
		t.Errorf("nodeHash allocates %.1f objects a call, want 0", a)
	}
}
