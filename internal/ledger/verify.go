package ledger

// verify.go re-derives the whole ledger structure from bytes alone. The
// threat-model discipline matches filing.Activate (PR 7): ledger bytes
// come from an untrusted volume, so every malformation — truncation, bad
// magic, counts that overrun the remaining bytes, a broken hash chain —
// is a typed error naming the first bad segment, never a panic, and every
// count is clamped against the remaining bytes BEFORE any allocation is
// sized from it.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/trace"
)

// ErrCorrupt is the sentinel all verification failures unwrap to.
var ErrCorrupt = errors.New("ledger: corrupt")

// CorruptError reports the first bad segment and what is wrong with it.
type CorruptError struct {
	Segment int // index of the first segment that failed to verify
	Detail  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ledger: segment %d: %s", e.Segment, e.Detail)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

func corruptf(seg int, format string, args ...any) error {
	return &CorruptError{Segment: seg, Detail: fmt.Sprintf(format, args...)}
}

// SegmentInfo describes one verified segment.
type SegmentInfo struct {
	FirstSeq uint64
	LastSeq  uint64
	Count    int
	Hash     [HashBytes]byte
	Header   []byte // raw header bytes (for event proofs)
}

// Replay is everything Verify reconstructs from a well-formed ledger: the
// full event stream, the per-kind accepted and dropped counters, the
// segment chain, and the Merkle root committing it all.
type Replay struct {
	Events   []trace.Event
	Counts   []uint64 // accepted per kind, summed over segment deltas
	Dropped  []uint64 // dropped per kind, summed over segment deltas
	Segments []SegmentInfo
	Root     [HashBytes]byte

	leaves [][HashBytes]byte // segment hashes, for proofs
}

// Verify parses and checks a complete ledger: per segment it re-derives
// the body Merkle root, cross-checks the header's per-kind count deltas
// against the body, recomputes the segment hash, and checks the previous-
// segment chain link; across segments it enforces strictly increasing
// sequence numbers. On success the returned Replay holds the reconstructed
// stream and counters; on any malformation the error is a *CorruptError
// unwrapping to ErrCorrupt.
func Verify(data []byte) (*Replay, error) {
	// Every record is RecordBytes of data, so this is an upper bound taken
	// from the bytes in hand, not from any count they declare.
	rep := &Replay{Events: make([]trace.Event, 0, len(data)/RecordBytes)}
	var prev [HashBytes]byte
	var lastSeq uint64
	// Per-segment scratch, filled only after the segment's declared counts
	// are clamped against the bytes that remain, and reused by every later
	// segment.
	var countDelta, dropDelta, bodyCounts []uint64
	var leaves [][HashBytes]byte
	off := 0
	for seg := 0; off < len(data); seg++ {
		rest := data[off:]
		if len(rest) < headerFixedBytes {
			return nil, corruptf(seg, "truncated header: %d bytes remain, need %d", len(rest), headerFixedBytes)
		}
		if m := binary.LittleEndian.Uint32(rest[0:4]); m != Magic {
			return nil, corruptf(seg, "bad magic %#x", m)
		}
		if v := binary.LittleEndian.Uint32(rest[4:8]); v != Version {
			return nil, corruptf(seg, "unsupported version %d", v)
		}
		if idx := binary.LittleEndian.Uint32(rest[8:12]); idx != uint32(seg) {
			return nil, corruptf(seg, "segment index %d out of order", idx)
		}
		kinds := binary.LittleEndian.Uint32(rest[12:16])
		if kinds == 0 || kinds > MaxKinds {
			return nil, corruptf(seg, "kind count %d outside [1,%d]", kinds, MaxKinds)
		}
		count := binary.LittleEndian.Uint32(rest[16:20])
		if count == 0 {
			return nil, corruptf(seg, "empty segment")
		}
		// Clamp the declared sizes against the remaining bytes before any
		// allocation is derived from them; the arithmetic is done in
		// uint64 so a hostile count cannot overflow the comparison.
		need := uint64(headerLen(int(kinds))) + uint64(count)*RecordBytes + HashBytes
		if uint64(len(rest)) < need {
			return nil, corruptf(seg, "declares %d bytes but only %d remain", need, len(rest))
		}
		hdr := rest[:headerLen(int(kinds))]
		firstSeq := binary.LittleEndian.Uint64(hdr[20:28])
		segLastSeq := binary.LittleEndian.Uint64(hdr[28:36])
		var prevHash, wantRoot [HashBytes]byte
		copy(prevHash[:], hdr[prevHashOff:])
		copy(wantRoot[:], hdr[bodyRootOff:])
		if prevHash != prev {
			return nil, corruptf(seg, "previous-segment hash mismatch: chain broken")
		}

		countDelta, dropDelta, bodyCounts = countDelta[:0], dropDelta[:0], bodyCounts[:0]
		for k := 0; k < int(kinds); k++ {
			countDelta = append(countDelta, binary.LittleEndian.Uint64(hdr[headerFixedBytes+8*k:]))
			dropDelta = append(dropDelta, binary.LittleEndian.Uint64(hdr[headerFixedBytes+8*(int(kinds)+k):]))
			bodyCounts = append(bodyCounts, 0)
		}

		body := rest[len(hdr) : len(hdr)+int(count)*RecordBytes]
		for i := 0; i < int(count); i++ {
			rec := body[i*RecordBytes : (i+1)*RecordBytes]
			ev := decodeRecord(rec)
			if uint32(ev.Kind) >= kinds {
				return nil, corruptf(seg, "record %d: kind %d outside header's %d kinds", i, ev.Kind, kinds)
			}
			if ev.Seq <= lastSeq {
				return nil, corruptf(seg, "record %d: sequence %d not increasing (last %d)", i, ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			bodyCounts[ev.Kind]++
			rep.Events = append(rep.Events, ev)
		}
		if rep.Events[len(rep.Events)-int(count)].Seq != firstSeq {
			return nil, corruptf(seg, "header firstSeq %d does not match body", firstSeq)
		}
		if lastSeq != segLastSeq {
			return nil, corruptf(seg, "header lastSeq %d does not match body %d", segLastSeq, lastSeq)
		}
		for k := range bodyCounts {
			if bodyCounts[k] != countDelta[k] {
				return nil, corruptf(seg, "kind %v count delta %d but body holds %d",
					trace.Kind(k), countDelta[k], bodyCounts[k])
			}
		}
		var got [HashBytes]byte
		if got, leaves = bodyRoot(body, leaves); got != wantRoot {
			return nil, corruptf(seg, "body Merkle root mismatch")
		}
		segHash := sha256.Sum256(hdr)
		var footer [HashBytes]byte
		copy(footer[:], rest[len(hdr)+len(body):])
		if footer != segHash {
			return nil, corruptf(seg, "segment hash mismatch")
		}

		grow := func(dst []uint64) []uint64 {
			for len(dst) < int(kinds) {
				dst = append(dst, 0)
			}
			return dst
		}
		rep.Counts = grow(rep.Counts)
		rep.Dropped = grow(rep.Dropped)
		for k := range countDelta {
			rep.Counts[k] += countDelta[k]
			rep.Dropped[k] += dropDelta[k]
		}

		rep.Segments = append(rep.Segments, SegmentInfo{
			FirstSeq: firstSeq,
			LastSeq:  segLastSeq,
			Count:    int(count),
			Hash:     segHash,
			Header:   append([]byte(nil), hdr...),
		})
		rep.leaves = append(rep.leaves, segHash)
		prev = segHash
		off += int(need)
	}
	rep.Root = merkleRoot(rep.leaves)
	return rep, nil
}

// ProveEvent builds the inclusion proof for the i'th replayed event
// (global position in Events). The proof verifies against rep.Root via
// VerifyEvent.
func (r *Replay) ProveEvent(i int) (*EventProof, error) {
	if i < 0 || i >= len(r.Events) {
		return nil, fmt.Errorf("ledger: event %d out of range (have %d)", i, len(r.Events))
	}
	seg, idx := 0, i
	for idx >= r.Segments[seg].Count {
		idx -= r.Segments[seg].Count
		seg++
	}
	info := r.Segments[seg]
	body := make([]byte, 0, info.Count*RecordBytes)
	for _, ev := range r.Events[i-idx : i-idx+info.Count] {
		body = appendRecord(body, ev)
	}
	leaves := leafHashes(body, nil)
	return &EventProof{
		Segment:      seg,
		Segments:     len(r.Segments),
		Index:        idx,
		SegmentCount: info.Count,
		Header:       info.Header,
		BodyPath:     inclusionPath(leaves, idx),
		LedgerPath:   inclusionPath(r.leaves, seg),
	}, nil
}

// RootAt is the Merkle root over the first n segments, 0 ≤ n ≤
// len(Segments) — the commitment a verifier would have held when the
// ledger was n segments long.
func (r *Replay) RootAt(n int) ([HashBytes]byte, error) {
	if n < 0 || n > len(r.leaves) {
		return [HashBytes]byte{}, fmt.Errorf("ledger: root at %d segments out of range (have %d)", n, len(r.leaves))
	}
	return merkleRoot(r.leaves[:n]), nil
}

// ConsistencyProof proves the first n segments, 1 ≤ n ≤ len(Segments),
// are a prefix of the full ledger; verify with
// VerifyConsistency(RootAt(n), Root, n, len(Segments), proof). The empty
// prefix has no proof (RFC 6962 defines none, and VerifyConsistency
// rejects n = 0).
func (r *Replay) ConsistencyProof(n int) ([][HashBytes]byte, error) {
	if n < 1 || n > len(r.leaves) {
		return nil, fmt.Errorf("ledger: consistency proof for %d segments out of range (have %d)", n, len(r.leaves))
	}
	return consistencyPath(r.leaves, n), nil
}
