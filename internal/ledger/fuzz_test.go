package ledger

// FuzzSegmentDecode mirrors filing.FuzzActivate's threat model: ledger
// bytes arrive from an untrusted volume, so the decoder must survive
// arbitrary input — counts clamped against the remaining bytes before any
// allocation, every malformation a typed error, never a panic. Each fuzz
// input is tried twice: raw, and after a best-effort re-hash that fixes
// up the chain and segment hashes so the parser gets past the hash gates
// into the deep structural checks (the same trick as filing's
// re-checksummed variant).

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/trace"
)

// rehash walks data as a best-effort segment sequence, rewriting each
// parseable segment's prevHash and footer so the hash chain verifies.
// Structural damage (bad counts, bad sequence numbers, short bodies)
// survives; only the cryptographic outer shell is repaired.
func rehash(data []byte) []byte {
	out := append([]byte(nil), data...)
	var prev [HashBytes]byte
	off := 0
	for off+headerFixedBytes <= len(out) {
		kinds := binary.LittleEndian.Uint32(out[off+12 : off+16])
		count := binary.LittleEndian.Uint32(out[off+16 : off+20])
		if kinds == 0 || kinds > MaxKinds {
			break
		}
		need := uint64(headerLen(int(kinds))) + uint64(count)*RecordBytes + HashBytes
		if uint64(len(out)-off) < need {
			break
		}
		hdr := out[off : off+headerLen(int(kinds))]
		copy(hdr[prevHashOff:], prev[:])
		segHash := sha256.Sum256(hdr)
		copy(out[off+int(need)-HashBytes:off+int(need)], segHash[:])
		prev = segHash
		off += int(need)
	}
	return out
}

func FuzzSegmentDecode(f *testing.F) {
	// Seed corpus: a genuine two-and-a-half-segment ledger, a drop-bearing
	// ledger (the format's drop-delta words, which this sink leaves zero,
	// filled in by hand and re-hashed), truncations, bit flips, and a
	// crafted header declaring far more records than the bytes behind it.
	valid := Seal(genEvents(80, 9), Config{SegmentEvents: 32})
	f.Add(valid)
	dropping := Seal(genEvents(250, 4), Config{SegmentEvents: 64})
	for k, nk := 0, trace.NumKinds(); k < nk; k++ {
		binary.LittleEndian.PutUint64(dropping[headerFixedBytes+8*(nk+k):], uint64(k))
	}
	f.Add(rehash(dropping))
	f.Add([]byte{})
	f.Add(valid[:headerFixedBytes-1])
	f.Add(valid[:len(valid)/2])
	for _, off := range []int{0, 8, 12, 16, 20, 40, 80, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x80
		f.Add(mut)
	}
	huge := append([]byte(nil), valid[:headerLen(trace.NumKinds())]...)
	binary.LittleEndian.PutUint32(huge[16:20], 0xFFFFFFFF)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, rehash(data)} {
			rep, err := Verify(in)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error %v does not unwrap to ErrCorrupt", err)
				}
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("error %v is not a *CorruptError", err)
				}
				if ce.Segment < 0 {
					t.Fatalf("negative segment in %v", ce)
				}
				continue
			}
			// Accepted input: the replay must be internally consistent
			// and idempotent under re-verification.
			var total uint64
			for _, n := range rep.Counts {
				total += n
			}
			if total != uint64(len(rep.Events)) {
				t.Fatalf("counters sum to %d but %d events replayed", total, len(rep.Events))
			}
			rep2, err := Verify(in)
			if err != nil || rep2.Root != rep.Root {
				t.Fatalf("re-verification diverged: %v", err)
			}
			for i := range rep.Events {
				p, err := rep.ProveEvent(i)
				if err != nil || !VerifyEvent(rep.Root, rep.Events[i], p) {
					t.Fatalf("accepted ledger: event %d proof failed (%v)", i, err)
				}
			}
		}
	})
}
