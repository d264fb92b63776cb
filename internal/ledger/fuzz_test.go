package ledger

// Two fuzzers. FuzzSinkRoundTrip holds the sink to the wire format from
// the producing side: whatever the stream, the ledger Bytes rebuilds from
// the packed segments it keeps is the one a direct encoding of the events
// gives.
//
// FuzzSegmentDecode mirrors filing.FuzzActivate's threat model: ledger
// bytes arrive from an untrusted volume, so the decoder must survive
// arbitrary input — counts clamped against the remaining bytes before any
// allocation, every malformation a typed error, never a panic. Each fuzz
// input is tried twice: raw, and after a best-effort re-hash that fixes
// up the chain and segment hashes so the parser gets past the hash gates
// into the deep structural checks (the same trick as filing's
// re-checksummed variant).

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
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

// A round-trip input is a segment size, a point to read the ledger at, and
// an event stream:
//
//	segmentEvents u16 (1 + it mod 300) | mid u8 (the read after mid/255 of
//	the stream) | events
//
// where an event is kind u8 (mod trace.NumKinds()) | widths u8 | fields.
// Each two bits of widths, lowest first, say how many bytes of the gap,
// obj, arg and aux follow, little-endian: 0, 1, 2 or the full width (8,
// 4, 4, 8). An event's seq is the last one's plus one plus its gap, from
// 0; the stream ends where the input does, or at a seq that would wrap.
func fieldBytes(widths byte, f int) int {
	return [4]int{0, 1, 2, [4]int{8, 4, 4, 8}[f]}[widths>>(2*f)&3]
}

func widthCode(x uint64) byte {
	switch {
	case x == 0:
		return 0
	case x < 1<<8:
		return 1
	case x < 1<<16:
		return 2
	}
	return 3
}

// encodeStream is decodeStream's inverse, each field in its fewest bytes.
func encodeStream(segmentEvents int, mid byte, events []trace.Event) []byte {
	out := binary.LittleEndian.AppendUint16(nil, uint16(segmentEvents-1))
	out = append(out, mid)
	var prev uint64
	for _, ev := range events {
		v := [4]uint64{ev.Seq - prev - 1, uint64(ev.Obj), uint64(ev.Arg), ev.Aux}
		prev = ev.Seq
		var widths byte
		for f, x := range v {
			widths |= widthCode(x) << (2 * f)
		}
		out = append(out, byte(ev.Kind), widths)
		for f, x := range v {
			for b := 0; b < fieldBytes(widths, f); b++ {
				out = append(out, byte(x>>(8*b)))
			}
		}
	}
	return out
}

func decodeStream(data []byte) (segmentEvents, mid int, events []trace.Event) {
	if len(data) < 3 {
		return 1, 0, nil
	}
	segmentEvents = 1 + int(binary.LittleEndian.Uint16(data))%300
	midFrac := int(data[2])
	data = data[3:]
	var seq uint64
	for len(data) >= 2 {
		kind, widths := data[0]%byte(trace.NumKinds()), data[1]
		data = data[2:]
		var v [4]uint64
		short := false
		for f := range v {
			n := fieldBytes(widths, f)
			if len(data) < n {
				short = true
				break
			}
			for b := 0; b < n; b++ {
				v[f] |= uint64(data[b]) << (8 * b)
			}
			data = data[n:]
		}
		if short || seq == math.MaxUint64 || v[0] > math.MaxUint64-seq-1 {
			break
		}
		seq += v[0] + 1
		events = append(events, trace.Event{Seq: seq, Kind: trace.Kind(kind), Obj: uint32(v[1]), Arg: uint32(v[2]), Aux: v[3]})
	}
	return segmentEvents, len(events) * midFrac / 255, events
}

// referenceLedger encodes events straight to the wire format (§12.3), a
// segment at a time, with no packed form between the events and the
// bytes: the header, each record by appendRecord and counted by kind,
// bodyRoot as merkleRoot over the record leaves, and the chain.
func referenceLedger(events []trace.Event, segmentEvents int) []byte {
	le, nk := binary.LittleEndian, trace.NumKinds()
	var out []byte
	var prev [HashBytes]byte
	for index := uint32(0); len(events) > 0; index++ {
		seg := events[:min(segmentEvents, len(events))]
		events = events[len(seg):]
		h := len(out)
		out = le.AppendUint32(out, Magic)
		out = le.AppendUint32(out, Version)
		out = le.AppendUint32(out, index)
		out = le.AppendUint32(out, uint32(nk))
		out = le.AppendUint32(out, uint32(len(seg)))
		out = le.AppendUint64(out, seg[0].Seq)
		out = le.AppendUint64(out, seg[len(seg)-1].Seq)
		out = append(out, prev[:]...)
		out = append(out, make([]byte, HashBytes+2*8*nk)...)
		leaves := make([][HashBytes]byte, len(seg))
		for i, ev := range seg {
			out = appendRecord(out, ev)
			leaves[i] = leafHash(out[len(out)-RecordBytes:])
			delta := out[h+headerFixedBytes+8*int(ev.Kind):]
			le.PutUint64(delta, le.Uint64(delta)+1)
		}
		root := merkleRoot(leaves)
		copy(out[h+bodyRootOff:], root[:])
		prev = sha256.Sum256(out[h : h+headerLen(nk)])
		out = append(out, prev[:]...)
	}
	return out
}

// FuzzSinkRoundTrip: a sink fed any stream of increasing sequence numbers,
// at any segment size, returns from Bytes, read mid-stream and again after
// Close, exactly the reference encoding of what it has cut; Verify replays
// the stream and reaches Root; and the sink holds each segment in the
// bytes the packed layout says.
func FuzzSinkRoundTrip(f *testing.F) {
	for _, se := range []int{1, 255, 256, 257} {
		f.Add(encodeStream(se, 128, genEvents(2*se+1, uint64(se))))
	}
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(encodeStream(1+int(seed)*37, byte(seed*80), genEvents(100, seed)))
	}
	f.Add(encodeStream(3, 255, []trace.Event{
		{Seq: 1, Kind: 1, Aux: math.MaxUint64},
		{Seq: math.MaxUint64 - 1, Kind: trace.Kind(trace.NumKinds() - 1), Obj: math.MaxUint32, Arg: math.MaxUint32, Aux: math.MaxUint64},
		{Seq: math.MaxUint64, Aux: math.MaxUint64},
	}))
	// Streams over a handful of objects start the fuzzer from recency-list
	// hits, and past fifteen objects from evictions too.
	for i, objects := range []uint32{1, 4, 15, 16, 40} {
		events := genEvents(400, uint64(i))
		for j := range events {
			events[j].Obj = 1 + events[j].Obj%objects
			events[j].Arg %= objects + 1
			events[j].Aux %= 200
		}
		f.Add(encodeStream([]int{7, 64, 256, 100, 300}[i], byte(60*i), events))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		se, mid, events := decodeStream(data)
		s := NewSink(Config{SegmentEvents: se})
		for _, ev := range events[:mid] {
			s.Record(ev)
		}
		if got, want := s.Bytes(), referenceLedger(events[:mid/se*se], se); !bytes.Equal(got, want) {
			t.Fatalf("%d events in segments of %d: Bytes after %d differs from the reference encoding", len(events), se, mid)
		}
		for _, ev := range events[mid:] {
			s.Record(ev)
		}
		s.Close()
		got := s.Bytes()
		if want := referenceLedger(events, se); !bytes.Equal(got, want) {
			t.Fatalf("%d events in segments of %d: Bytes after Close differs from the reference encoding", len(events), se)
		}
		rep, err := Verify(got)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Events) != len(events) {
			t.Fatalf("replayed %d events, recorded %d", len(rep.Events), len(events))
		}
		for i := range events {
			if rep.Events[i] != events[i] {
				t.Fatalf("event %d replays as %v, recorded %v", i, rep.Events[i], events[i])
			}
		}
		if root := s.Root(); rep.Root != root {
			t.Fatal("Verify's root is not Root()")
		}
		for i, seg := range s.segs {
			if want := packedSize(events[i*se : min((i+1)*se, len(events))]); len(seg) != want {
				t.Fatalf("segment %d held in %d bytes, the packed layout says %d", i, len(seg), want)
			}
		}
	})
}
