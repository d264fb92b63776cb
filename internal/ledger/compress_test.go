package ledger

// The hashing kernels against crypto/sha256. Every lane of the wide
// kernel's batches (hashBatch, sixteen messages), of leafHash2 and
// nodeHash2 (two), and the single forms leafHash and nodeHash, which run
// one message in both lanes, must give sha256.Sum256's bytes for every
// record and every pair of subtree hashes. The edge inputs are all-zero
// and all-one records and hashes, batches whose lanes are all one message,
// and the witness streams' records; the rest is seeded random. The
// level-order body root must be merkleRoot's on every tree size a segment
// can have, on every branch this CPU has. The CI log says which branches
// the runner took.

import (
	"crypto/sha256"
	"math/rand"
	"strings"
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

// branches are the hashing branches the selection variables can name,
// widest first.
var branches = []struct {
	name        string
	wide, shani bool
}{
	{"wide+shani", true, true},
	{"wide+sum256", true, false},
	{"shani", false, true},
	{"sum256", false, false},
}

// eachBranch runs f as a subtest under every branch this build and CPU
// have, with useAVX512 and useSHANI set to it, restores them, and returns
// the names of the branches it ran.
func eachBranch(t *testing.T, f func(t *testing.T)) (ran []string) {
	wide, shani := useAVX512, useSHANI
	defer func() { useAVX512, useSHANI = wide, shani }()
	for _, b := range branches {
		if b.wide && !wide || b.shani && !shani {
			continue
		}
		useAVX512, useSHANI = b.wide, b.shani
		t.Run(b.name, f)
		ran = append(ran, b.name)
	}
	return ran
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

// checkLeafBatch lays recs out as leafHashes does, hashes them with
// hashBatch and holds every lane to sha256.Sum256.
func checkLeafBatch(t *testing.T, what string, recs *[batch][]byte) {
	var blocks [batch * 64]byte
	var d [batch][HashBytes]byte
	for k, rec := range recs {
		leafBlock((*[64]byte)(blocks[k*64:]), rec)
	}
	hashBatch(&d, blocks[:], 1+RecordBytes)
	for k, rec := range recs {
		if want := refLeaf(rec); d[k] != want {
			t.Fatalf("%s: lane %d: leaf of %x is %x, sha256 gives %x", what, k, rec, d[k], want)
		}
	}
}

// checkNodeBatch does the same for the nodes of l[k], r[k] as bodyRoot
// lays them out.
func checkNodeBatch(t *testing.T, what string, l, r *[batch][HashBytes]byte) {
	var blocks [batch * 128]byte
	var d [batch][HashBytes]byte
	for k := range l {
		nodeBlock((*[128]byte)(blocks[k*128:]), &l[k], &r[k])
	}
	hashBatch(&d, blocks[:], 1+2*HashBytes)
	for k := range l {
		if want := refNode(l[k], r[k]); d[k] != want {
			t.Fatalf("%s: lane %d: node of %x, %x is %x, sha256 gives %x", what, k, l[k], r[k], d[k], want)
		}
	}
}

func TestLedgerHashKernel(t *testing.T) {
	if !useSHANI && !useAVX512 {
		t.Skip("no kernel selected: this is a non-amd64 or -tags purego build, or the CPU lacks both AVX-512 (F, BW) and SHA with SSSE3 and SSE4.1; hash2 calls sha256.Sum256")
	}

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
		if len(edges) == 64 {
			break
		}
		edges = append(edges, refLeaf(rec))
	}
	rng := rand.New(rand.NewSource(35))

	t.Run("two-lane", func(t *testing.T) {
		if !useSHANI {
			t.Skip("SHA-NI kernel not selected: the CPU lacks SHA, SSSE3 or SSE4.1")
		}
		t.Log("SHA-NI kernel selected: hash2 compresses its padded blocks two lanes at a time")
		for i, rec := range recs {
			checkLeaves(t, "edge", rec, recs[(i+1)%len(recs)])
		}
		for i, l := range edges {
			for j, r := range edges {
				checkNodes(t, "edge", l, r, edges[(i+1)%len(edges)], edges[(j+3)%len(edges)])
			}
		}
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
	})

	t.Run("wide", func(t *testing.T) {
		if !useAVX512 {
			t.Skip("wide kernel not selected: the CPU or OS lacks AVX-512 (F, BW and ZMM state)")
		}
		t.Log("AVX-512 kernel selected: hashBatch compresses sixteen padded messages at once")
		var lr [batch][]byte
		var l, r [batch][HashBytes]byte
		for i := 0; i < len(recs); i += batch {
			for k := range lr {
				lr[k] = recs[(i+k)%len(recs)]
			}
			checkLeafBatch(t, "edge", &lr)
		}
		for i := range edges {
			for j := 0; j < len(edges); j += batch {
				for k := range l {
					l[k], r[k] = edges[(i+k)%len(edges)], edges[(j+k)%len(edges)]
				}
				checkNodeBatch(t, "edge", &l, &r)
			}
		}
		for i := range edges {
			for k := range lr {
				lr[k], l[k], r[k] = recs[i], edges[i], edges[len(edges)-1-i]
			}
			checkLeafBatch(t, "equal lanes", &lr)
			checkNodeBatch(t, "equal lanes", &l, &r)
		}
		for k := range lr {
			lr[k] = make([]byte, RecordBytes)
		}
		for i := 0; i < 100_000; i++ {
			for k := range lr {
				rng.Read(lr[k])
				rng.Read(l[k][:])
				rng.Read(r[k][:])
			}
			checkLeafBatch(t, "random", &lr)
			checkNodeBatch(t, "random", &l, &r)
		}
	})
}

// TestLedgerBodyRootLevelOrder: the sealer's and Verify's level-order root
// is the recursive merkleRoot for every body of 0 to 600 records, on every
// hashing branch this CPU has. That covers the default segment, its short
// final segments, the 4-record cuts of the gdp differential fuzz, and the
// full batches of sixteen leaves and nodes with every remainder. bodyRoot
// reuses its scratch and allocates nothing.
func TestLedgerBodyRootLevelOrder(t *testing.T) {
	const maxN = 600
	ran := eachBranch(t, func(t *testing.T) {
		var body []byte
		var leaves, scratch [][HashBytes]byte
		for n := 0; n <= maxN; n++ {
			if n > 0 {
				body = appendRecord(body, trace.Event{Seq: uint64(n), Kind: trace.Kind(n % 7), Obj: uint32(n * 31), Aux: uint64(n) << 40})
				leaves = append(leaves, refLeaf(body[len(body)-RecordBytes:]))
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
	})
	t.Logf("level-order root equals merkleRoot for 0…%d records on branches %s", maxN, strings.Join(ran, ", "))
}
