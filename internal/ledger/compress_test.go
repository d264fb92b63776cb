package ledger

// The SHA-NI kernel against crypto/sha256: each lane of leafHash2 and
// nodeHash2, and the single forms leafHash and nodeHash, must give
// sha256.Sum256's bytes for every record and every pair of subtree
// hashes. The edge inputs are all-zero and all-one records and hashes and
// the witness streams' records, the rest seeded random; each is paired
// with a different input in leafHash2 and nodeHash2, and with itself in
// the single forms, which run one message in both lanes. The level-order
// body root must be merkleRoot's on every tree size a segment can have.
// The CI log says which branch the runner took.

import (
	"crypto/sha256"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

func refLeaf(rec []byte) [HashBytes]byte {
	var m [1 + RecordBytes]byte
	copy(m[1:], rec)
	return sha256.Sum256(m[:])
}

func refNode(l, r [HashBytes]byte) [HashBytes]byte {
	m := [1 + 2*HashBytes]byte{0x01}
	copy(m[1:], l[:])
	copy(m[1+HashBytes:], r[:])
	return sha256.Sum256(m[:])
}

// checkLeaves holds both lanes of leafHash2(a, b) and leafHash(a), which
// runs a in both lanes, to sha256.Sum256.
func checkLeaves(t *testing.T, what string, a, b []byte) {
	h0, h1 := leafHash2(a, b)
	if want := refLeaf(a); h0 != want || leafHash(a) != want {
		t.Fatalf("%s: leaf of %x: lane 0 %x, single %x, sha256 gives %x", what, a, h0, leafHash(a), want)
	}
	if want := refLeaf(b); h1 != want {
		t.Fatalf("%s: leaf of %x: lane 1 %x, sha256 gives %x", what, b, h1, want)
	}
}

// checkNodes does the same for nodeHash2(l0, r0, l1, r1) and nodeHash(l0, r0).
func checkNodes(t *testing.T, what string, l0, r0, l1, r1 [HashBytes]byte) {
	h0, h1 := nodeHash2(&l0, &r0, &l1, &r1)
	if want := refNode(l0, r0); h0 != want || nodeHash(l0, r0) != want {
		t.Fatalf("%s: node of %x, %x: lane 0 %x, single %x, sha256 gives %x", what, l0, r0, h0, nodeHash(l0, r0), want)
	}
	if want := refNode(l1, r1); h1 != want {
		t.Fatalf("%s: node of %x, %x: lane 1 %x, sha256 gives %x", what, l1, r1, h1, want)
	}
}

func TestLedgerHashKernel(t *testing.T) {
	if !useSHANI {
		t.Skip("kernel not selected: this is a non-amd64 or -tags purego build, or the CPU lacks SHA, SSSE3 or SSE4.1; leafHash2 and nodeHash2 call sha256.Sum256")
	}
	t.Log("SHA-NI kernel selected: leafHash2 and nodeHash2 compress their padded blocks two lanes at a time")

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
	for i, rec := range recs {
		checkLeaves(t, "edge", rec, recs[(i+1)%len(recs)])
		if len(edges) < 64 {
			edges = append(edges, refLeaf(rec))
		}
	}
	for i, l := range edges {
		for j, r := range edges {
			checkNodes(t, "edge", l, r, edges[(i+1)%len(edges)], edges[(j+3)%len(edges)])
		}
	}

	rng := rand.New(rand.NewSource(35))
	rec0, rec1 := make([]byte, RecordBytes), make([]byte, RecordBytes)
	var l0, r0, l1, r1 [HashBytes]byte
	for i := 0; i < 100_000; i++ {
		for _, b := range [][]byte{rec0, rec1, l0[:], r0[:], l1[:], r1[:]} {
			rng.Read(b)
		}
		checkLeaves(t, "random", rec0, rec1)
		checkNodes(t, "random", l0, r0, l1, r1)
	}

	for name, f := range map[string]func(){
		"leafHash2": func() { l0, l1 = leafHash2(rec0, rec1) },
		"leafHash":  func() { l0 = leafHash(rec0) },
		"nodeHash2": func() { l0, l1 = nodeHash2(&l0, &r0, &l1, &r1) },
		"nodeHash":  func() { l0 = nodeHash(l0, r0) },
	} {
		if a := testing.AllocsPerRun(100, f); a != 0 {
			t.Errorf("%s allocates %.1f objects a call, want 0", name, a)
		}
	}
}

// TestLedgerBodyRootLevelOrder: the sealer's and Verify's level-order root
// is the recursive merkleRoot for every body of 0 to 600 records, which
// covers the default segment, its short final segments and the 4-record
// cuts of the gdp differential fuzz, and it reuses its scratch.
func TestLedgerBodyRootLevelOrder(t *testing.T) {
	const maxN = 600
	var body []byte
	var leaves, scratch [][HashBytes]byte
	for n := 0; n <= maxN; n++ {
		if n > 0 {
			body = appendRecord(body, trace.Event{Seq: uint64(n), Kind: trace.Kind(n % 7), Obj: uint32(n * 31), Aux: uint64(n) << 40})
			leaves = append(leaves, leafHash(body[len(body)-RecordBytes:]))
		}
		var got [HashBytes]byte
		got, scratch = bodyRoot(body, scratch)
		if want := merkleRoot(leaves); got != want {
			t.Fatalf("%d records: level-order root %x, merkleRoot %x", n, got, want)
		}
	}
	if a := testing.AllocsPerRun(10, func() { _, scratch = bodyRoot(body, scratch) }); a != 0 {
		t.Errorf("bodyRoot with warm scratch allocates %.1f objects a call, want 0", a)
	}
	t.Logf("level-order root equals merkleRoot for 0…%d records", maxN)
}
