package ledger

// merkle.go is the commitment layer: an RFC 6962-style Merkle tree
// (domain-separated leaf/node hashing, unbalanced trees split at the
// largest power of two) with inclusion proofs, consistency proofs between
// a ledger prefix and its extension, and the composed event proof that
// ties one trace event to the ledger root through its segment's body tree
// and header.

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/trace"
)

// batch is how many messages hashBatch takes at once: the wide kernel's
// lanes.
const batch = 16

// hash2 hashes two padded messages of equal length at once, p0 into d0 and
// p1 into d1; the first n bytes of each are the message. Where the CPU has
// the SHA extensions (useSHANI) it compresses the pair from the IV with
// hashSHANI2, whose two lanes overlap; elsewhere it calls sha256.Sum256 on
// each message. The bytes are the same either way.
func hash2(d0, d1 *[HashBytes]byte, p0, p1 []byte, n int) {
	if !useSHANI {
		*d0, *d1 = sha256.Sum256(p0[:n]), sha256.Sum256(p1[:n])
		return
	}
	hashSHANI2(d0, d1, p0, p1)
}

// hashBatch hashes the batch padded messages of p, laid out back to back
// and each len(p)/batch bytes long, message i into d[i]; the first n bytes
// of each are the message. Where the CPU has AVX-512 (useAVX512) the wide
// kernel compresses all sixteen at once; elsewhere hash2 takes them a pair
// at a time.
func hashBatch(d *[batch][HashBytes]byte, p []byte, n int) {
	if useAVX512 {
		hashAVX512(d, p)
		return
	}
	m := len(p) / batch
	for k := 0; k < batch; k += 2 {
		hash2(&d[k], &d[k+1], p[k*m:(k+1)*m], p[(k+1)*m:(k+2)*m], n)
	}
}

// leafHash2 is the domain-separated hash (0x00 prefix, so a leaf can never
// be confused with an interior node) of two encoded records at once; each
// holds RecordBytes. nodeHash2 is its interior-node counterpart. The sink,
// Verify and the proofs all hash through these and the batches of
// leafHashes and bodyRoot, and none of them allocates: each lays its
// messages out in stack blocks padded for SHA-256, one block for a leaf
// and two for a node.
func leafHash2(rec0, rec1 []byte) (h0, h1 [HashBytes]byte) {
	var b0, b1 [64]byte
	leafBlock(&b0, rec0)
	leafBlock(&b1, rec1)
	hash2(&h0, &h1, b0[:], b1[:], 1+RecordBytes)
	return h0, h1
}

// leafBlock fills b with 0x00 | record | 0x80 | 0… | bit length 208; the
// bytes between the 0x80 and the length must already be zero. The blocks
// are filled in place: returned by value, they would be copied.
func leafBlock(b *[64]byte, rec []byte) {
	*(*[RecordBytes]byte)(b[1:]) = [RecordBytes]byte(rec)
	b[1+RecordBytes] = 0x80
	binary.BigEndian.PutUint64(b[56:], (1+RecordBytes)*8)
}

// nodeHash2 combines two pairs of subtree hashes (0x01 prefix) at once.
func nodeHash2(l0, r0, l1, r1 *[HashBytes]byte) (h0, h1 [HashBytes]byte) {
	var b0, b1 [128]byte
	nodeBlock(&b0, l0, r0)
	nodeBlock(&b1, l1, r1)
	hash2(&h0, &h1, b0[:], b1[:], 1+2*HashBytes)
	return h0, h1
}

// nodeBlock fills b with 0x01 | l | r | 0x80 | 0… | bit length 520, over
// zeros as leafBlock does.
func nodeBlock(b *[128]byte, l, r *[HashBytes]byte) {
	b[0] = 0x01
	*(*[HashBytes]byte)(b[1:]) = *l
	*(*[HashBytes]byte)(b[1+HashBytes:]) = *r
	b[1+2*HashBytes] = 0x80
	binary.BigEndian.PutUint64(b[120:], (1+2*HashBytes)*8)
}

// leafHash and nodeHash are the single forms, for the proofs, an odd last
// leaf or pair and the top of a tree: both lanes hash the same message.
func leafHash(rec []byte) [HashBytes]byte {
	h, _ := leafHash2(rec, rec)
	return h
}

func nodeHash(l, r [HashBytes]byte) [HashBytes]byte {
	h, _ := nodeHash2(&l, &r, &l, &r)
	return h
}

// leafHashes is the leaf hash of each of body's records (a whole number of
// RecordBytes), in leaves resized to fit: every full batch of sixteen
// through hashBatch, the remainder two at a time. The batches share one
// set of stack blocks, whose padding zeros each batch leaves as it found
// them.
func leafHashes(body []byte, leaves [][HashBytes]byte) [][HashBytes]byte {
	n := len(body) / RecordBytes
	if cap(leaves) < n {
		leaves = make([][HashBytes]byte, n)
	}
	leaves = leaves[:n]
	rec := func(i int) []byte { return body[i*RecordBytes : (i+1)*RecordBytes] }
	var blocks [batch * 64]byte
	full := n - n%batch
	for i := 0; i < full; i += batch {
		for k := 0; k < batch; k++ {
			leafBlock((*[64]byte)(blocks[k*64:]), rec(i+k))
		}
		hashBatch((*[batch][HashBytes]byte)(leaves[i:]), blocks[:], 1+RecordBytes)
	}
	for i := full; i+1 < n; i += 2 {
		leaves[i], leaves[i+1] = leafHash2(rec(i), rec(i+1))
	}
	if n%2 == 1 {
		leaves[n-1] = leafHash(rec(n - 1))
	}
	return leaves
}

// bodyRoot is merkleRoot over the leaf hashes of body's records (a whole
// number of RecordBytes), computed level by level so that the hashes of a
// level are independent of each other: the leaves, then each level's
// nodes, every full batch of sixteen pairs through hashBatch and the
// remainder two pairs at a time, an odd last node carried up unchanged.
// That is merkleRoot's tree: the left subtree is the largest power of two,
// which pairs off within itself at every level, so the right subtree
// starts on an even position and is paired as it would be alone, its last
// node carried until the left has come down to one. A level's nodes are
// written over its own first half: a batch's inputs are in its blocks
// before its outputs land, and every later input sits past them. leaves is
// scratch, returned for reuse.
func bodyRoot(body []byte, leaves [][HashBytes]byte) ([HashBytes]byte, [][HashBytes]byte) {
	leaves = leafHashes(body, leaves)
	n := len(leaves)
	if n == 0 {
		return sha256.Sum256(nil), leaves
	}
	var blocks [batch * 128]byte
	for ; n > 1; n = (n + 1) / 2 {
		pairs := n / 2
		full := pairs - pairs%batch
		for i := 0; i < full; i += batch {
			for k := 0; k < batch; k++ {
				nodeBlock((*[128]byte)(blocks[k*128:]), &leaves[2*(i+k)], &leaves[2*(i+k)+1])
			}
			hashBatch((*[batch][HashBytes]byte)(leaves[i:]), blocks[:], 1+2*HashBytes)
		}
		i := full
		for ; i+1 < pairs; i += 2 {
			leaves[i], leaves[i+1] = nodeHash2(&leaves[2*i], &leaves[2*i+1], &leaves[2*i+2], &leaves[2*i+3])
		}
		if i < pairs {
			leaves[i] = nodeHash(leaves[2*i], leaves[2*i+1])
		}
		if n%2 == 1 {
			leaves[pairs] = leaves[n-1]
		}
	}
	return leaves[0], leaves
}

// splitPoint is the largest power of two strictly less than n (n ≥ 2).
func splitPoint(n int) int {
	k := 1
	for k<<1 < n {
		k <<= 1
	}
	return k
}

// merkleRoot hashes a leaf-hash slice into one commitment. The empty tree
// hashes to sha256("") so "no segments" is still a well-defined root.
func merkleRoot(leaves [][HashBytes]byte) [HashBytes]byte {
	switch len(leaves) {
	case 0:
		return sha256.Sum256(nil)
	case 1:
		return leaves[0]
	}
	k := splitPoint(len(leaves))
	return nodeHash(merkleRoot(leaves[:k]), merkleRoot(leaves[k:]))
}

// inclusionPath is the audit path for leaf m in a tree of len(leaves)
// leaves: the sibling hashes needed to climb from the leaf to the root.
func inclusionPath(leaves [][HashBytes]byte, m int) [][HashBytes]byte {
	if len(leaves) <= 1 {
		return nil
	}
	k := splitPoint(len(leaves))
	if m < k {
		return append(inclusionPath(leaves[:k], m), merkleRoot(leaves[k:]))
	}
	return append(inclusionPath(leaves[k:], m-k), merkleRoot(leaves[:k]))
}

// VerifyInclusion checks that leaf sits at index m of the size-n tree
// committed by root, given its audit path (RFC 6962 §2.1.3 climb).
func VerifyInclusion(root, leaf [HashBytes]byte, m, n int, path [][HashBytes]byte) bool {
	if m < 0 || n <= 0 || m >= n {
		return false
	}
	fn, sn := uint64(m), uint64(n-1)
	r := leaf
	for _, p := range path {
		if sn == 0 {
			return false
		}
		if fn&1 == 1 || fn == sn {
			r = nodeHash(p, r)
			for fn&1 == 0 && fn != 0 {
				fn >>= 1
				sn >>= 1
			}
		} else {
			r = nodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && r == root
}

// consistencyPath proves that the size-m prefix of leaves is a prefix of
// the full size-len(leaves) tree (RFC 6962 §2.1.2 PROOF/SUBPROOF).
func consistencyPath(leaves [][HashBytes]byte, m int) [][HashBytes]byte {
	return subProof(leaves, m, true)
}

func subProof(leaves [][HashBytes]byte, m int, complete bool) [][HashBytes]byte {
	n := len(leaves)
	if m == n {
		if complete {
			return nil
		}
		return [][HashBytes]byte{merkleRoot(leaves)}
	}
	k := splitPoint(n)
	if m <= k {
		return append(subProof(leaves[:k], m, complete), merkleRoot(leaves[k:]))
	}
	return append(subProof(leaves[k:], m-k, false), merkleRoot(leaves[:k]))
}

// VerifyConsistency checks that the tree of size n committed by oldRoot
// is a prefix of the tree of size m committed by newRoot (RFC 6962
// §2.1.4 verification).
func VerifyConsistency(oldRoot, newRoot [HashBytes]byte, n, m int, proof [][HashBytes]byte) bool {
	if n <= 0 || m < n {
		return false
	}
	if n == m {
		return len(proof) == 0 && oldRoot == newRoot
	}
	// An exact power-of-two prefix is itself a subtree: its root opens
	// the path implicitly.
	if n&(n-1) == 0 {
		proof = append([][HashBytes]byte{oldRoot}, proof...)
	}
	if len(proof) == 0 {
		return false
	}
	fn, sn := uint64(n-1), uint64(m-1)
	for fn&1 == 1 {
		fn >>= 1
		sn >>= 1
	}
	fr, sr := proof[0], proof[0]
	for _, c := range proof[1:] {
		if sn == 0 {
			return false
		}
		if fn&1 == 1 || fn == sn {
			fr = nodeHash(c, fr)
			sr = nodeHash(c, sr)
			for fn&1 == 0 && fn != 0 {
				fn >>= 1
				sn >>= 1
			}
		} else {
			sr = nodeHash(sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && fr == oldRoot && sr == newRoot
}

// EventProof ties one event to a ledger root: the event's leaf climbs the
// segment's body tree to the bodyRoot committed in the header, the header
// hashes to the segment hash, and the segment hash climbs the ledger tree
// to the root. Everything a verifier needs besides the root and the event
// itself travels in the proof.
type EventProof struct {
	Segment      int // segment index holding the event
	Segments     int // total sealed segments under the root
	Index        int // record index within the segment
	SegmentCount int // records in the segment

	Header     []byte            // raw header bytes of the segment
	BodyPath   [][HashBytes]byte // record leaf → bodyRoot
	LedgerPath [][HashBytes]byte // segment hash → ledger root
}

// VerifyEvent checks an event proof against a ledger root. It recomputes
// the record encoding from the event, climbs the body path to the header's
// committed bodyRoot, hashes the header into the segment hash, and climbs
// the ledger path to root — any substitution along the way fails.
func VerifyEvent(root [HashBytes]byte, ev trace.Event, p *EventProof) bool {
	if p == nil || len(p.Header) < headerFixedBytes {
		return false
	}
	if binary.LittleEndian.Uint32(p.Header[0:4]) != Magic ||
		binary.LittleEndian.Uint32(p.Header[4:8]) != Version {
		return false
	}
	if binary.LittleEndian.Uint32(p.Header[8:12]) != uint32(p.Segment) {
		return false
	}
	if binary.LittleEndian.Uint32(p.Header[16:20]) != uint32(p.SegmentCount) {
		return false
	}
	var bodyRoot [HashBytes]byte
	copy(bodyRoot[:], p.Header[bodyRootOff:])
	rec := appendRecord(nil, ev)
	if !VerifyInclusion(bodyRoot, leafHash(rec), p.Index, p.SegmentCount, p.BodyPath) {
		return false
	}
	segHash := sha256.Sum256(p.Header)
	return VerifyInclusion(root, segHash, p.Segment, p.Segments, p.LedgerPath)
}
