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

// leafHash is the domain-separated hash of one encoded record (0x00
// prefix, so a leaf can never be confused with an interior node); rec
// holds RecordBytes. The sink, Verify and the proofs all hash through
// these two functions, and neither allocates. Each lays its message out
// in a stack block with room for SHA-256's padding: where the CPU has the
// SHA extensions (useSHANI) it pads the block, one for a leaf and two for
// a node, and compresses it from the IV with hashSHANI; elsewhere it
// calls sha256.Sum256 on the message. The bytes are the same either way.
func leafHash(rec []byte) [HashBytes]byte {
	var blk [64]byte // 0x00 | record | 0x80 | 0… | bit length 208
	*(*[RecordBytes]byte)(blk[1:]) = [RecordBytes]byte(rec)
	if !useSHANI {
		return sha256.Sum256(blk[:1+RecordBytes])
	}
	blk[1+RecordBytes] = 0x80
	binary.BigEndian.PutUint64(blk[56:], (1+RecordBytes)*8)
	var d [HashBytes]byte
	hashSHANI(&d, blk[:])
	return d
}

// nodeHash combines two subtree hashes (0x01 prefix).
func nodeHash(l, r [HashBytes]byte) [HashBytes]byte {
	var blk [128]byte // 0x01 | l | r | 0x80 | 0… | bit length 520
	blk[0] = 0x01
	*(*[HashBytes]byte)(blk[1:]) = l
	*(*[HashBytes]byte)(blk[1+HashBytes:]) = r
	if !useSHANI {
		return sha256.Sum256(blk[:1+2*HashBytes])
	}
	blk[1+2*HashBytes] = 0x80
	binary.BigEndian.PutUint64(blk[120:], (1+2*HashBytes)*8)
	var d [HashBytes]byte
	hashSHANI(&d, blk[:])
	return d
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
