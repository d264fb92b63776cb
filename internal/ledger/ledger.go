// Package ledger is the tamper-evident audit pipeline behind the trace
// ring: an asynchronous batching sink that folds the kernel event stream
// into Merkle-chained, append-only segments with integrity proofs.
//
// internal/trace keeps only a bounded in-memory ring; at scenario-engine
// scale a chaos run's damage-confinement verdict cannot be re-checked
// after the fact. The ledger fixes that: every event offered to the sink
// either lands in a sealed segment or is counted as an explicit drop, the
// segments form a hash chain committed by one Merkle root, and Verify
// (verify.go) re-derives the whole structure from the bytes alone — the
// event stream becomes a formal artifact checkable independently of the
// kernel that produced it.
//
// Determinism discipline: admission is an append to the open segment and
// a cut at every SegmentEvents-th accepted record, both on the emitting
// thread, so which events a segment holds and where segments are cut are a
// pure function of (events, Config): two same-seed runs produce
// byte-identical ledgers at every cache corner. Nothing is dropped while
// the sink is open; the one backpressure is real, not modelled: the
// emitter waits when sealWindow segments are still being hashed.
//
// That is what lets the folding itself be host-asynchronous. Once a
// segment is cut its events and index are fixed, so packing it, writing
// its wire form and computing bodyRoot run on a goroutine of their own
// while the emitter goes on admitting; the emitter collects finished
// segments oldest-first and only then writes prevHash and hashes the
// header, so the chain is built in segment order whatever order bodies
// finish in. Every byte is a function of values fixed at the cut; the
// host's schedule decides when a byte is written, never which. Every
// method that reads sealed state joins the segments in flight first.
//
// A sealed segment is held packed (packSegment), about an eighth of its
// wire size: each record behind a head byte, its object indices coded
// against a recency list that starts empty in every segment. appendRecord
// is the one writer of record bytes and putHeader of header bytes: the
// sealer writes each cut event once, straight from the events, and hashes
// that body, and Bytes rebuilds the ledger from the packed segments through
// appendWire, which decodes each record and writes it with appendRecord.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"

	"repro/internal/trace"
)

// Wire format, all little-endian. A ledger is a concatenation of
// segments; each segment is
//
//	header  magic u32 | version u32 | index u32 | kinds u32 | count u32
//	        firstSeq u64 | lastSeq u64
//	        prevHash [32] | bodyRoot [32]
//	        kinds × countDelta u64 | kinds × dropDelta u64
//	body    count × record (seq u64 | kind u8 | obj u32 | arg u32 | aux u64)
//	footer  segHash [32]
//
// where bodyRoot is the Merkle root over the record leaf hashes
// (merkle.go), segHash = sha256(header), and prevHash chains to the
// previous segment's segHash (zero for segment 0). Committing the body
// through bodyRoot means an event-inclusion proof carries one header plus
// two Merkle paths instead of a whole segment body.
const (
	// Magic opens every segment header ("iLGR" little-endian, after
	// filing's "iMAX").
	Magic = 0x52474C69
	// Version is the current wire version; Verify rejects others.
	Version = 1
	// RecordBytes is the fixed width of one encoded event.
	RecordBytes = 8 + 1 + 4 + 4 + 8
	// HashBytes is the width of every hash in the format.
	HashBytes = sha256.Size
	// prevHashOff and bodyRootOff locate the header's two hashes.
	prevHashOff = 5*4 + 2*8
	bodyRootOff = prevHashOff + HashBytes
	// headerFixedBytes is the header length before the per-kind deltas.
	headerFixedBytes = bodyRootOff + HashBytes
	// MaxKinds bounds the per-kind delta arrays; kind is one byte on the
	// wire so anything larger is malformed by construction.
	MaxKinds = 255
)

func headerLen(kinds int) int { return headerFixedBytes + 2*8*kinds }

// appendRecord encodes one event in the fixed 25-byte wire layout.
func appendRecord(dst []byte, ev trace.Event) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, ev.Seq)
	dst = append(dst, byte(ev.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, ev.Obj)
	dst = binary.LittleEndian.AppendUint32(dst, ev.Arg)
	return binary.LittleEndian.AppendUint64(dst, ev.Aux)
}

// decodeRecord is appendRecord's inverse; b must hold RecordBytes.
func decodeRecord(b []byte) trace.Event {
	return trace.Event{
		Seq:  binary.LittleEndian.Uint64(b[0:8]),
		Kind: trace.Kind(b[8]),
		Obj:  binary.LittleEndian.Uint32(b[9:13]),
		Arg:  binary.LittleEndian.Uint32(b[13:17]),
		Aux:  binary.LittleEndian.Uint64(b[17:25]),
	}
}

// DefaultSegmentEvents is Config.SegmentEvents when left zero.
const DefaultSegmentEvents = 256

// Config sizes the pipeline.
type Config struct {
	// SegmentEvents is the number of records per sealed segment.
	SegmentEvents int
}

// sealWindow bounds the segments whose bodies are being hashed at once,
// and with them the memory in flight (about 24 KB a slot at the default
// size: 8 KB of events, 8 KB of leaves, 6.9 KB of header and wire records
// and 0.9 KB packed). Hashing a segment still costs more than admitting
// it, so the emitter fills the window and then waits; the window is what
// a second core draws on while it does, and sealers the emitter has just
// started reach another core only by being stolen from its run queue,
// which is quick for all but the newest.
// With the two-lane kernel, serve-audit's run_s on a 2-core host is within
// noise of 16 at 8 and a tenth under 4 (medians of fourteen rounds of the
// three: 0.118, 0.124 and 0.136 s at 16, 8 and 4; 16 was ahead of 8 in
// nine of them).
const sealWindow = 8

// slabBytes is the unit sealed segments are carved from. A segment is held
// packed, about 0.9 KB for a default segment of serve-audit's events, so a
// slab holds some seventy and wastes at most the one that did not fit.
const slabBytes = 64 << 10

// A packed record opens with a head byte: its low five bits hold the kind,
// or kindEscape when the kind follows as a byte of its own, and the three
// high bits say whether a gap follows, whether obj and arg share one byte of
// recency codes (paired) and whether an aux follows. A zero gap or aux is
// not written.
const (
	kindBits   = 0x1f
	kindEscape = kindBits
	hasGap     = 0x20
	paired     = 0x40
	hasAux     = 0x80
)

// recentLen is the length of a segment's recency list. An object index is
// written as a code: 0 for zero, 1 to recentLen for the list's entries,
// most recent first, and the index plus recentLen for one the list does not
// hold, past the sixteen codes a nibble carries.
const recentLen = 15

// recent is the recency list packSegment codes a segment's obj and arg
// fields against and appendWire decodes them with: the last recentLen
// distinct non-zero values, most recent first, the unused tail zero, which
// no coded value equals. Both sides start each segment with an empty list
// and move every value they code to the front, obj before arg, so a
// segment decodes on its own.
type recent [recentLen]uint32

// code returns v's code and moves v to the front. It searches and shifts
// in one pass: each entry it passes moves back a place, and the pass stops
// at v, which the entry before it overwrites, or falls off the end.
func (r *recent) code(v uint32) uint64 {
	if v == 0 {
		return 0
	}
	prev := v
	for i, cur := range r {
		r[i] = prev
		if cur == v {
			return uint64(i) + 1
		}
		prev = cur
	}
	return uint64(v) + recentLen
}

// value is code's inverse: it returns the value coded c and moves it to the
// front.
func (r *recent) value(c uint64) uint32 {
	if c == 0 {
		return 0
	}
	i, v := recentLen-1, uint32(c-recentLen)
	if c <= recentLen {
		i = int(c) - 1
		v = r[i]
	}
	copy(r[1:i+1], r[:i])
	r[0] = v
	return v
}

// A sealed segment is held as the bytes packSegment writes:
//
//	bodyRoot [32] | uvarint firstSeq | uvarint count
//	count × (head u8 | [kind u8] | [uvarint gap] | codes | [uvarint aux])
//	codes   obj code | arg code << 4      (u8, paired)
//	        uvarint obj code | uvarint arg code  (otherwise)
//
// where gap is the record's seq less the previous record's, less one (the
// first record's is its distance from firstSeq, so 0), taken modulo 2^64,
// the codes are obj's and then arg's against the segment's recency list
// (recent), and a record is paired when both codes are below 16. That is
// everything a segment's wire bytes hold but its index, prevHash and
// footer, which are its place in the chain and the hashes in segHashes. A
// record packs into 2 to 32 bytes; a kernel stream's sequence numbers are
// consecutive, its kinds fewer than 31, its scalars small and most of its
// objects among the last few it named, so serve-audit's segments take
// about 3.5 bytes an event, their heads included (DESIGN §12.2).
func packSegment(dst []byte, events []trace.Event) []byte {
	dst = append(dst, make([]byte, HashBytes)...) // bodyRoot, once hashed
	dst = binary.AppendUvarint(dst, events[0].Seq)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	var r recent
	prev := events[0].Seq - 1
	for _, ev := range events {
		gap := ev.Seq - prev - 1
		prev = ev.Seq
		oc, ac := r.code(ev.Obj), r.code(ev.Arg)
		head := byte(min(ev.Kind, kindEscape))
		if gap != 0 {
			head |= hasGap
		}
		if oc|ac < 16 {
			head |= paired
		}
		if ev.Aux != 0 {
			head |= hasAux
		}
		dst = append(dst, head)
		if head&kindBits == kindEscape {
			dst = append(dst, byte(ev.Kind))
		}
		if gap != 0 {
			dst = binary.AppendUvarint(dst, gap)
		}
		if head&paired != 0 {
			dst = append(dst, byte(oc|ac<<4))
		} else {
			dst = binary.AppendUvarint(dst, oc)
			dst = binary.AppendUvarint(dst, ac)
		}
		if ev.Aux != 0 {
			dst = binary.AppendUvarint(dst, ev.Aux)
		}
	}
	return dst
}

// uvarint reads the uvarint packSegment wrote at the front of b and
// returns it and the rest of b. Most of a kernel's fields are one byte,
// which it reads without entering the loop.
func uvarint(b []byte) (uint64, []byte) {
	if b[0] < 0x80 {
		return uint64(b[0]), b[1:]
	}
	x := uint64(b[0] & 0x7f)
	for i, s := 1, 7; ; i, s = i+1, s+7 {
		c := b[i]
		x |= uint64(c&0x7f) << s
		if c < 0x80 {
			return x, b[i+1:]
		}
	}
}

// packedHead reads a packed segment's first sequence number and record
// count, and returns its records.
func packedHead(seg []byte) (first uint64, count int, recs []byte) {
	first, recs = uvarint(seg[HashBytes:])
	c, recs := uvarint(recs)
	return first, int(c), recs
}

// wireLen is the wire size of a packed segment with nk kinds.
func wireLen(nk int, seg []byte) int {
	_, count, _ := packedHead(seg)
	return headerLen(nk) + count*RecordBytes + HashBytes
}

// putHeader writes into hdr, headerLen(nk) bytes, the header of segment
// index with nk kinds over body, its records in the wire layout: their
// count, first and last sequence numbers and per-kind count deltas, prev
// as its prevHash and root as its bodyRoot. It is the one writer of header
// bytes, for the sealer and for appendWire.
func putHeader(hdr []byte, index uint32, nk int, body []byte, prev, root *[HashBytes]byte) {
	le := binary.LittleEndian
	clear(hdr)
	le.PutUint32(hdr[0:], Magic)
	le.PutUint32(hdr[4:], Version)
	le.PutUint32(hdr[8:], index)
	le.PutUint32(hdr[12:], uint32(nk))
	le.PutUint32(hdr[16:], uint32(len(body)/RecordBytes))
	le.PutUint64(hdr[20:], le.Uint64(body))
	le.PutUint64(hdr[28:], le.Uint64(body[len(body)-RecordBytes:]))
	copy(hdr[prevHashOff:], prev[:])
	copy(hdr[bodyRootOff:], root[:])
	for k := 8; k < len(body); k += RecordBytes {
		if kind := int(body[k]); kind < nk {
			delta := hdr[headerFixedBytes+8*kind:]
			le.PutUint64(delta, le.Uint64(delta)+1)
		}
	}
}

// appendWire appends the wire form of the packed segment seg (§12.3) to
// dst: the header of segment index with nk kinds, prev as its prevHash and
// the packed bodyRoot, each record decoded and encoded by appendRecord,
// and foot as the footer. It decodes the object codes against a recency
// list of its own, kept as packSegment kept the encoder's. Bytes rebuilds
// every sealed segment through it with the hashes the chain holds. The
// sealer wrote and hashed the same records straight from the events, so a
// packing that lost a bit shows as a body that no longer matches its
// bodyRoot, and Verify refuses it.
func appendWire(dst []byte, index uint32, nk int, seg []byte, prev, foot *[HashBytes]byte) []byte {
	first, count, recs := packedHead(seg)
	h := len(dst)
	dst = slices.Grow(dst, wireLen(nk, seg))[:h+headerLen(nk)]
	seq := first - 1
	var r recent
	for i := 0; i < count; i++ {
		head := recs[0]
		kind := trace.Kind(head & kindBits)
		recs = recs[1:]
		if kind == kindEscape {
			kind, recs = trace.Kind(recs[0]), recs[1:]
		}
		var gap, oc, ac, aux uint64
		if head&hasGap != 0 {
			gap, recs = uvarint(recs)
		}
		if head&paired != 0 {
			oc, ac, recs = uint64(recs[0]&0xf), uint64(recs[0]>>4), recs[1:]
		} else {
			oc, recs = uvarint(recs)
			ac, recs = uvarint(recs)
		}
		obj := r.value(oc)
		arg := r.value(ac)
		if head&hasAux != 0 {
			aux, recs = uvarint(recs)
		}
		seq += gap + 1
		dst = appendRecord(dst, trace.Event{Seq: seq, Kind: kind, Obj: obj, Arg: arg, Aux: aux})
	}
	putHeader(dst[h:h+headerLen(nk)], index, nk, dst[h+headerLen(nk):], prev, (*[HashBytes]byte)(seg))
	return append(dst, foot[:]...)
}

// sealing is one cut segment on its way to the chain. The emitter fixes
// its index and records at the cut; run, on its own goroutine, packs them,
// writes them once in the wire layout and hashes that body; collect chains
// it. The scratch slices grow to the largest segment the slot has sealed.
type sealing struct {
	index  uint32
	events []trace.Event     // the segment's records, recycled
	packed []byte            // the segment packed, bodyRoot filled by run
	wire   []byte            // its header and body, prevHash filled by collect
	leaves [][HashBytes]byte // body-tree scratch, recycled
	done   sync.WaitGroup    // run has finished with packed and wire
	start  func()            // calls run; built once per slot, see seal
}

// Sink is the batching pipeline. It implements trace.Sink; attach it with
// trace.Log.SetSink. All methods are safe for concurrent use: the log's
// goroutine records into it while a reader on another goroutine may ask how
// far it has sealed.
type Sink struct {
	mu            sync.Mutex
	segmentEvents int
	kinds         int // per-kind delta words in every header

	pending []trace.Event // records of the open (unsealed) segment

	window   [sealWindow]sealing // cut segments not yet chained, a ring
	head, n  int                 // oldest slot of window, slots in use
	segIndex uint32              // segments cut so far

	slab      []byte            // unused tail of the current slab
	segs      [][]byte          // chained segments, packed, in order
	segHashes [][HashBytes]byte // footer hash of every chained segment
	prev      [HashBytes]byte   // last chained segment's hash

	recorded uint64 // events accepted
	dropped  uint64 // events offered after Close
	closed   bool
}

// NewSink returns a pipeline with cfg's zero fields defaulted.
func NewSink(cfg Config) *Sink {
	if cfg.SegmentEvents <= 0 {
		cfg.SegmentEvents = DefaultSegmentEvents
	}
	return &Sink{segmentEvents: cfg.SegmentEvents, kinds: trace.NumKinds()}
}

// Record appends one event to the open segment and cuts the segment when
// it is full (the trace.Sink hook). After Close the sink is sealed:
// further events are counted as drops so the loss stays observable, but
// no segment changes. A closed sink cuts nothing, so the drop-delta words
// the wire format keeps in every header are always written zero.
func (s *Sink) Record(ev trace.Event) {
	s.mu.Lock()
	if s.closed {
		s.dropped++
	} else {
		s.pending = append(s.pending, ev)
		s.recorded++
		if len(s.pending) >= s.segmentEvents {
			s.seal()
		}
	}
	s.mu.Unlock()
}

// seal cuts the open segment: it fixes everything the bytes depend on
// (index, records) in a window slot and starts the goroutine that seals
// it. Called with mu held and len(s.pending) > 0. Waiting here for the
// oldest sealer holds mu across a block, which is safe because no sealer
// ever takes it.
func (s *Sink) seal() {
	if s.n == sealWindow {
		s.collect()
	}
	j := &s.window[(s.head+s.n)%sealWindow]
	s.n++
	j.events, s.pending = s.pending, j.events[:0]
	j.index = s.segIndex
	s.segIndex++
	j.done.Add(1)
	// A go statement over a func value without arguments allocates
	// nothing; one that passes nk allocates a closure to carry it, every
	// cut. A pool of sealers would need stopping (DESIGN §12).
	if j.start == nil {
		nk := s.kinds
		j.start = func() { j.run(nk) }
	}
	go j.start()
}

// run packs the records, writes each of them once with appendRecord
// into the wire scratch behind room for the header, hashes that body into
// bodyRoot, and writes the header and the packed bodyRoot. It touches
// nothing but its own slot, so it needs no lock and an abandoned sink
// leaves nothing behind once it returns.
func (j *sealing) run(nk int) {
	defer j.done.Done()
	j.packed = packSegment(j.packed[:0], j.events)
	hl := headerLen(nk)
	j.wire = slices.Grow(j.wire[:0], hl+len(j.events)*RecordBytes)[:hl]
	for _, ev := range j.events {
		j.wire = appendRecord(j.wire, ev)
	}
	var zero, root [HashBytes]byte
	root, j.leaves = bodyRoot(j.wire[hl:], j.leaves)
	putHeader(j.wire[:hl], j.index, nk, j.wire[hl:], &zero, &root)
	copy(j.packed, root[:])
}

// collect waits for the oldest cut segment and chains it: prevHash into
// its wire header, the header hashed into its footer hash, and the packed
// segment carved from the slab. Called with mu held and s.n > 0.
func (s *Sink) collect() {
	j := &s.window[s.head]
	s.head, s.n = (s.head+1)%sealWindow, s.n-1
	j.done.Wait()
	copy(j.wire[prevHashOff:], s.prev[:])
	s.prev = sha256.Sum256(j.wire[:headerLen(s.kinds)])
	size := len(j.packed)
	if len(s.slab) < size {
		s.slab = make([]byte, max(size, slabBytes))
	}
	seg := s.slab[:size:size]
	copy(seg, j.packed)
	s.slab = s.slab[size:]
	s.segs = append(s.segs, seg)
	s.segHashes = append(s.segHashes, s.prev)
}

// join chains every segment cut so far. Called with mu held.
func (s *Sink) join() {
	for s.n > 0 {
		s.collect()
	}
}

// Close seals the final (short) segment and returns once every segment
// is chained, so no goroutine of the sink outlives it, and drops the
// window's scratch, which nothing seals into again. Idempotent; events
// Recorded after Close are counted as drops. A segment already sealed is
// immutable from here on — in particular a trace.Log.Reset of the ring
// upstream has no effect on the ledger (see trace.Log.Reset).
func (s *Sink) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if len(s.pending) > 0 {
		s.seal()
	}
	s.join()
	s.window, s.pending = [sealWindow]sealing{}, nil
}

// Bytes returns the sealed ledger, rebuilt from the packed segments by
// appendWire. Call Close first for the complete stream; before Close it
// returns the segments cut so far. A chained segment and its hash never
// change, so the rebuild runs outside the lock.
func (s *Sink) Bytes() []byte {
	s.mu.Lock()
	s.join()
	segs, hashes, nk := s.segs, s.segHashes, s.kinds
	s.mu.Unlock()
	size := 0
	for _, seg := range segs {
		size += wireLen(nk, seg)
	}
	out := make([]byte, 0, size)
	var prev [HashBytes]byte
	for i, seg := range segs {
		out = appendWire(out, uint32(i), nk, seg, &prev, &hashes[i])
		prev = hashes[i]
	}
	return out
}

// Root is the Merkle root over the sealed segment hashes — the single
// commitment to the whole ledger.
func (s *Sink) Root() [HashBytes]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.join()
	return merkleRoot(s.segHashes)
}

// RootHex is Root as a hex string (for fingerprints and reports).
func (s *Sink) RootHex() string {
	r := s.Root()
	return hex.EncodeToString(r[:])
}

// Segments reports the number of sealed segments.
func (s *Sink) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.join()
	return len(s.segHashes)
}

// Recorded reports the number of accepted events.
func (s *Sink) Recorded() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorded
}

// Dropped reports the number of events offered after Close.
func (s *Sink) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Seal runs a complete event stream through a fresh pipeline and returns
// the ledger bytes — the one-shot construction used by tests (including
// the hostile-editor tamper tests, which re-seal a doctored stream).
func Seal(events []trace.Event, cfg Config) []byte {
	s := NewSink(cfg)
	for _, ev := range events {
		s.Record(ev)
	}
	s.Close()
	return s.Bytes()
}
