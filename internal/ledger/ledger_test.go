package ledger

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/trace"
)

// genEvents builds a deterministic synthetic event stream: every kind in
// rotation, payloads from a seeded LCG, sequence numbers dense from 1.
func genEvents(n int, seed uint64) []trace.Event {
	x := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	out := make([]trace.Event, n)
	for i := range out {
		out[i] = trace.Event{
			Seq:  uint64(i + 1),
			Kind: trace.Kind(1 + next()%uint64(trace.NumKinds()-1)),
			Obj:  uint32(next()),
			Arg:  uint32(next()),
			Aux:  next(),
		}
	}
	return out
}

func TestRecordCodecRoundTrip(t *testing.T) {
	for _, ev := range genEvents(64, 7) {
		b := appendRecord(nil, ev)
		if len(b) != RecordBytes {
			t.Fatalf("record is %d bytes, want %d", len(b), RecordBytes)
		}
		if got := decodeRecord(b); got != ev {
			t.Fatalf("round trip: %v != %v", got, ev)
		}
	}
}

func TestSealVerifyRoundTrip(t *testing.T) {
	events := genEvents(1000, 42)
	s := NewSink(Config{SegmentEvents: 64})
	for _, ev := range events {
		s.Record(ev)
	}
	s.Close()
	if got := s.Recorded(); got != 1000 {
		t.Fatalf("recorded %d, want 1000", got)
	}
	if got := s.Dropped(); got != 0 {
		t.Fatalf("dropped %d with an ample config", got)
	}

	rep, err := Verify(s.Bytes())
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(rep.Events) != len(events) {
		t.Fatalf("replayed %d events, want %d", len(rep.Events), len(events))
	}
	for i, ev := range events {
		if rep.Events[i] != ev {
			t.Fatalf("event %d: replayed %v, want %v", i, rep.Events[i], ev)
		}
	}
	if rep.Root != s.Root() {
		t.Fatalf("replay root != sink root")
	}
	wantSegs := (len(events) + 63) / 64
	if len(rep.Segments) != wantSegs || s.Segments() != wantSegs {
		t.Fatalf("segments: replay %d, sink %d, want %d", len(rep.Segments), s.Segments(), wantSegs)
	}

	// Per-kind counters reconstruct exactly.
	want := make([]uint64, trace.NumKinds())
	for _, ev := range events {
		want[ev.Kind]++
	}
	for k, n := range want {
		if rep.Counts[k] != n {
			t.Fatalf("kind %v: replayed count %d, want %d", trace.Kind(k), rep.Counts[k], n)
		}
	}
	for k, n := range rep.Dropped {
		if n != 0 {
			t.Fatalf("kind %v: replayed %d drops from a sink that dropped nothing", trace.Kind(k), n)
		}
	}
}

// TestShortFinalSegment: Close seals a partial segment and Verify accepts
// it.
func TestShortFinalSegment(t *testing.T) {
	events := genEvents(100, 3)
	data := Seal(events, Config{SegmentEvents: 64})
	rep, err := Verify(data)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(rep.Segments) != 2 || rep.Segments[1].Count != 36 {
		t.Fatalf("segments = %+v, want [64, 36]", rep.Segments)
	}
}

func TestEmptyLedger(t *testing.T) {
	s := NewSink(Config{})
	s.Close()
	if len(s.Bytes()) != 0 {
		t.Fatalf("empty sink produced bytes")
	}
	rep, err := Verify(nil)
	if err != nil {
		t.Fatalf("verify empty: %v", err)
	}
	if len(rep.Events) != 0 || rep.Root != s.Root() {
		t.Fatalf("empty replay mismatch")
	}
}

// TestRecordAfterClose: a sealed sink stays immutable but keeps the loss
// observable.
func TestRecordAfterClose(t *testing.T) {
	s := NewSink(Config{SegmentEvents: 8})
	for _, ev := range genEvents(20, 5) {
		s.Record(ev)
	}
	s.Close()
	before := s.Bytes()
	root := s.Root()
	s.Record(trace.Event{Seq: 21, Kind: trace.EvSend})
	s.Close() // idempotent
	if !bytes.Equal(before, s.Bytes()) || root != s.Root() {
		t.Fatalf("sink mutated after Close")
	}
	if s.Dropped() != 1 {
		t.Fatalf("post-Close record not counted as drop: %d", s.Dropped())
	}
}

// TestTruncationRejected: every strict prefix of a valid ledger that cuts
// into a segment fails with a typed error.
func TestTruncationRejected(t *testing.T) {
	data := Seal(genEvents(96, 11), Config{SegmentEvents: 32})
	for cut := 1; cut < len(data); cut++ {
		_, err := Verify(data[:len(data)-cut])
		if err == nil {
			// A cut landing exactly on a segment boundary yields a valid
			// shorter ledger only if the chain still ends cleanly — but
			// any partial segment must fail.
			segBytes := len(data) / 3
			if (len(data)-cut)%segBytes == 0 {
				continue
			}
			t.Fatalf("truncation by %d accepted", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation by %d: error %v does not unwrap to ErrCorrupt", cut, err)
		}
	}
}

// TestVerifyNamesFirstBadSegment: corruption in segment k is reported
// against segment k (or earlier if the damage bleeds backward — never
// later, and never accepted).
func TestVerifyNamesFirstBadSegment(t *testing.T) {
	data := Seal(genEvents(96, 23), Config{SegmentEvents: 32})
	segBytes := len(data) / 3
	for seg := 0; seg < 3; seg++ {
		mut := append([]byte(nil), data...)
		mut[seg*segBytes+headerFixedBytes+4] ^= 0x40 // a body/delta byte
		_, err := Verify(mut)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("segment %d corruption: error %v is not a CorruptError", seg, err)
		}
		if ce.Segment != seg {
			t.Fatalf("corruption in segment %d reported against segment %d: %v", seg, ce.Segment, ce)
		}
	}
}

// TestChainSpliceRejected: replacing a whole interior segment with a
// self-consistent forgery still breaks the prev-hash chain.
func TestChainSpliceRejected(t *testing.T) {
	events := genEvents(96, 31)
	honest := Seal(events, Config{SegmentEvents: 32})

	// Forge a ledger whose middle segment carries different payloads but
	// identical sequence numbering, then splice its middle segment into
	// the honest ledger.
	doctored := append([]trace.Event(nil), events...)
	for i := 32; i < 64; i++ {
		doctored[i].Aux ^= 0xDEAD
	}
	forged := Seal(doctored, Config{SegmentEvents: 32})
	segBytes := len(honest) / 3
	spliced := append([]byte(nil), honest[:segBytes]...)
	spliced = append(spliced, forged[segBytes:2*segBytes]...)
	spliced = append(spliced, honest[2*segBytes:]...)

	_, err := Verify(spliced)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("spliced ledger: error %v is not a CorruptError", err)
	}
	// The forged segment's own chain link happens to match (same honest
	// prefix), so detection lands on the forged segment's hash being
	// chained from segment 2 — either way a named segment, never success.
	if ce.Segment < 1 || ce.Segment > 2 {
		t.Fatalf("splice detected at segment %d, want 1 or 2", ce.Segment)
	}
}

// TestSnapshotMatchesSink: the trace.Log → sink path records exactly the
// events the ring counted, under one consistent snapshot.
func TestSnapshotMatchesSink(t *testing.T) {
	l := trace.New(64) // ring much smaller than the stream: sink must not care
	s := NewSink(Config{SegmentEvents: 32})
	l.SetSink(s)
	for i := 0; i < 1000; i++ {
		l.Emit(trace.Kind(1+i%(trace.NumKinds()-1)), uint32(i), 0, 0)
	}
	s.Close()
	seq, counts := l.Snapshot()
	if s.Recorded() != seq {
		t.Fatalf("sink recorded %d, log emitted %d", s.Recorded(), seq)
	}
	rep, err := Verify(s.Bytes())
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	for k, n := range counts {
		if rep.Counts[k] != n {
			t.Fatalf("kind %v: ledger %d, ring %d", trace.Kind(k), rep.Counts[k], n)
		}
	}
}

// TestResetPreservesSealedSegments documents Reset's contract: clearing
// the ring does not reach sealed ledger history.
func TestResetPreservesSealedSegments(t *testing.T) {
	l := trace.New(256)
	s := NewSink(Config{SegmentEvents: 16})
	l.SetSink(s)
	for i := 0; i < 64; i++ {
		l.Emit(trace.EvSend, uint32(i), 0, 0)
	}
	sealedBefore := s.Segments()
	if sealedBefore == 0 {
		t.Fatalf("no segments sealed before reset")
	}
	bytesBefore := s.Bytes()
	l.Reset()
	if s.Segments() != sealedBefore || !bytes.Equal(s.Bytes(), bytesBefore) {
		t.Fatalf("ring reset disturbed sealed segments")
	}
	// Post-reset events keep flowing into the same ledger, in order.
	for i := 0; i < 64; i++ {
		l.Emit(trace.EvRecv, uint32(i), 0, 0)
	}
	s.Close()
	if _, err := Verify(s.Bytes()); err != nil {
		t.Fatalf("ledger spanning a ring reset does not verify: %v", err)
	}
}
