package ledger

// Property tests for the commitment layer: inclusion proofs for every
// event of random batches, consistency proofs for every prefix/extension
// pair, and an exhaustive single-byte flip sweep over a small committed
// ledger — any flipped byte anywhere must make verification fail naming
// the first bad segment.

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/trace"
)

// TestInclusionEveryEvent: for random batch sizes, every single event's
// inclusion proof verifies against the ledger root, and fails against a
// perturbed event, index, or root.
func TestInclusionEveryEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 31, 32, 33, 100, 257} {
		events := genEvents(n, uint64(n)*13)
		segEvents := 1 + rng.Intn(40)
		rep, err := Verify(Seal(events, Config{SegmentEvents: segEvents}))
		if err != nil {
			t.Fatalf("n=%d: verify: %v", n, err)
		}
		for i, ev := range rep.Events {
			p, err := rep.ProveEvent(i)
			if err != nil {
				t.Fatalf("n=%d: prove %d: %v", n, i, err)
			}
			if !VerifyEvent(rep.Root, ev, p) {
				t.Fatalf("n=%d seg=%d: event %d inclusion proof rejected", n, segEvents, i)
			}
			bad := ev
			bad.Aux ^= 1
			if VerifyEvent(rep.Root, bad, p) {
				t.Fatalf("n=%d: perturbed event %d still proves", n, i)
			}
			if other := (i + 1) % len(rep.Events); other != i {
				if VerifyEvent(rep.Root, rep.Events[other], p) {
					t.Fatalf("n=%d: event %d proves under event %d's proof", n, other, i)
				}
			}
			var badRoot [HashBytes]byte
			copy(badRoot[:], rep.Root[:])
			badRoot[0] ^= 1
			if VerifyEvent(badRoot, ev, p) {
				t.Fatalf("n=%d: event %d proves under a wrong root", n, i)
			}
		}
	}
}

// TestConsistencyEveryPrefix: for every tree size up to a bound and every
// prefix of it, the consistency proof verifies, and fails against a
// tampered prefix root.
func TestConsistencyEveryPrefix(t *testing.T) {
	const maxN = 24
	leaves := make([][HashBytes]byte, maxN)
	for i := range leaves {
		leaves[i] = leafHash(appendRecord(nil, trace.Event{Seq: uint64(i)}))
	}
	for m := 1; m <= maxN; m++ {
		newRoot := merkleRoot(leaves[:m])
		for n := 1; n <= m; n++ {
			oldRoot := merkleRoot(leaves[:n])
			proof := consistencyPath(leaves[:m], n)
			if !VerifyConsistency(oldRoot, newRoot, n, m, proof) {
				t.Fatalf("consistency %d→%d rejected", n, m)
			}
			bad := oldRoot
			bad[3] ^= 1
			if VerifyConsistency(bad, newRoot, n, m, proof) {
				t.Fatalf("consistency %d→%d accepted a wrong old root", n, m)
			}
			if n < m {
				if VerifyConsistency(oldRoot, newRoot, n, m, proof[:len(proof)-1]) {
					t.Fatalf("consistency %d→%d accepted a shortened proof", n, m)
				}
			}
		}
	}
}

// TestReplayConsistency ties the prefix proofs to real ledgers: a run's
// ledger at segment n is provably a prefix of the finished ledger.
func TestReplayConsistency(t *testing.T) {
	rep, err := Verify(Seal(genEvents(200, 77), Config{SegmentEvents: 16}))
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	total := len(rep.Segments)
	for n := 1; n <= total; n++ {
		root, err := rep.RootAt(n)
		if err != nil {
			t.Fatalf("root at %d/%d segments: %v", n, total, err)
		}
		proof, err := rep.ConsistencyProof(n)
		if err != nil {
			t.Fatalf("proof for %d/%d segments: %v", n, total, err)
		}
		if !VerifyConsistency(root, rep.Root, n, total, proof) {
			t.Fatalf("prefix of %d/%d segments not provably consistent", n, total)
		}
	}
}

// TestReplayProofBounds: a prefix length outside the ledger is an error
// from both, as a bad index is from ProveEvent. ConsistencyProof(0) used
// to recurse until the stack overflowed, which no recover catches, and
// RootAt outside [0, len] panicked on a slice bound.
func TestReplayProofBounds(t *testing.T) {
	rep, err := Verify(Seal(genEvents(200, 77), Config{SegmentEvents: 16}))
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	total := len(rep.Segments)
	for _, c := range []struct {
		n             int
		root, proving bool
	}{{-1, false, false}, {0, true, false}, {total, true, true}, {total + 1, false, false}} {
		root, err := rep.RootAt(c.n)
		if (err == nil) != c.root {
			t.Errorf("RootAt(%d) of %d segments: err = %v, want ok = %v", c.n, total, err, c.root)
		}
		if err == nil && root != merkleRoot(rep.leaves[:c.n]) {
			t.Errorf("RootAt(%d) is not the root of the first %d segments", c.n, c.n)
		}
		proof, err := rep.ConsistencyProof(c.n)
		if (err == nil) != c.proving {
			t.Errorf("ConsistencyProof(%d) of %d segments: err = %v, want ok = %v", c.n, total, err, c.proving)
		}
		if err == nil && !VerifyConsistency(root, rep.Root, c.n, total, proof) {
			t.Errorf("ConsistencyProof(%d) does not verify", c.n)
		}
	}
	if empty, err := (&Replay{}).RootAt(0); err != nil || empty != merkleRoot(nil) {
		t.Errorf("RootAt(0) of an empty replay = %x, %v", empty, err)
	}
}

// TestExhaustiveFlipSweep: flip every bit-position-0..7 of every byte of
// a small committed ledger; verification must fail every time with a
// CorruptError naming a segment no later than the one containing the
// flipped byte.
func TestExhaustiveFlipSweep(t *testing.T) {
	data := Seal(genEvents(48, 55), Config{SegmentEvents: 16})
	segBytes := len(data) / 3
	for off := 0; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			_, err := Verify(mut)
			if err == nil {
				t.Fatalf("flip byte %d bit %d accepted", off, bit)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("flip byte %d bit %d: %v is not a CorruptError", off, bit, err)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip byte %d bit %d: %v does not unwrap to ErrCorrupt", off, bit, err)
			}
			if inSeg := off / segBytes; ce.Segment > inSeg {
				t.Fatalf("flip in segment %d (byte %d) reported against later segment %d",
					inSeg, off, ce.Segment)
			}
		}
	}
}

// TestDoctoredProofsFailClosed: the proofs are the ledger's reader-side
// boundary, so every refusal of VerifyInclusion, VerifyConsistency,
// VerifyEvent and ProveEvent has a row here, reached by a proof or an
// argument doctored from one that verifies; Verify's refusals are a
// *CorruptError that names its segment and unwraps to ErrCorrupt.
func TestDoctoredProofsFailClosed(t *testing.T) {
	leaves := make([][HashBytes]byte, 7)
	for i := range leaves {
		leaves[i] = leafHash(appendRecord(nil, trace.Event{Seq: uint64(i)}))
	}
	root5, path := merkleRoot(leaves[:5]), inclusionPath(leaves[:5], 2)
	root3, root7, proof := merkleRoot(leaves[:3]), merkleRoot(leaves), consistencyPath(leaves, 3)

	rep, err := Verify(Seal(genEvents(100, 9), Config{SegmentEvents: 16}))
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	const evIndex = 20 // the fifth record of the second segment
	ev := rep.Events[evIndex]
	p, err := rep.ProveEvent(evIndex)
	if err != nil {
		t.Fatalf("prove %d: %v", evIndex, err)
	}
	doctor := func(f func(q *EventProof)) *EventProof {
		q := *p
		q.Header = append([]byte(nil), p.Header...)
		f(&q)
		return &q
	}

	if !VerifyInclusion(root5, leaves[2], 2, 5, path) || !VerifyConsistency(root3, root7, 3, 7, proof) || !VerifyEvent(rep.Root, ev, p) {
		t.Fatal("an undoctored proof is rejected")
	}
	for _, c := range []struct {
		name     string
		accepted bool
	}{
		{"inclusion: index m = n", VerifyInclusion(root5, leaves[2], 5, 5, path)},
		{"inclusion: tree size n = 0", VerifyInclusion(root5, leaves[2], 0, 0, path)},
		{"inclusion: path one element too long", VerifyInclusion(root5, leaves[2], 2, 5, append(path[:len(path):len(path)], leaves[6]))},
		{"consistency: old size n = 0", VerifyConsistency(root3, root7, 0, 7, proof)},
		{"consistency: new size m < n", VerifyConsistency(root7, root3, 7, 3, proof)},
		{"consistency: empty proof", VerifyConsistency(root3, root7, 3, 7, nil)},
		{"consistency: trailing proof element", VerifyConsistency(root3, root7, 3, 7, append(proof[:len(proof):len(proof)], leaves[0]))},
		{"event: nil proof", VerifyEvent(rep.Root, ev, nil)},
		{"event: short header", VerifyEvent(rep.Root, ev, doctor(func(q *EventProof) { q.Header = q.Header[:headerFixedBytes-1] }))},
		{"event: wrong magic", VerifyEvent(rep.Root, ev, doctor(func(q *EventProof) { q.Header[0] ^= 1 }))},
		{"event: wrong version", VerifyEvent(rep.Root, ev, doctor(func(q *EventProof) { q.Header[4] ^= 1 }))},
		{"event: wrong segment", VerifyEvent(rep.Root, ev, doctor(func(q *EventProof) { q.Segment++ }))},
		{"event: wrong count", VerifyEvent(rep.Root, ev, doctor(func(q *EventProof) { q.SegmentCount++ }))},
	} {
		if c.accepted {
			t.Errorf("%s: accepted", c.name)
		}
	}

	for _, i := range []int{-1, len(rep.Events)} {
		if q, err := rep.ProveEvent(i); err == nil || q != nil {
			t.Errorf("ProveEvent(%d) of %d events = %v, %v; want an error", i, len(rep.Events), q, err)
		}
	}

	data := Seal(genEvents(48, 55), Config{SegmentEvents: 16})
	_, err = Verify(data[:len(data)-1])
	var ce *CorruptError
	if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) || err.Error() != "ledger: segment "+strconv.Itoa(ce.Segment)+": "+ce.Detail {
		t.Errorf("a truncated ledger: Verify returns %v, want a *CorruptError naming its segment that unwraps to ErrCorrupt", err)
	}
}
