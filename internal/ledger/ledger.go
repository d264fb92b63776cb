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
// segment is cut its events and index are fixed, so encoding its body and
// computing bodyRoot run on a goroutine of their own while the emitter
// goes on admitting; the emitter collects finished segments oldest-first
// and only then writes prevHash and hashes the header, so the chain is
// built in segment order whatever order bodies finish in. Every
// byte is a function of values fixed at the cut; the host's schedule
// decides when a byte is written, never which. Every method that reads
// sealed state joins the segments in flight first.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
// and with them the memory in flight (about 16 KB of records and leaves a
// slot). Hashing a segment still costs more than admitting it, so the
// emitter fills the window and then waits; the window is what a second
// core draws on while it does, and sealers the emitter has just started
// reach another core only by being stolen from its run queue, which is
// quick for all but the newest. With the two-lane kernel, serve-audit's
// run_s on a 2-core host is within noise of 16 at 8 and a tenth under 4
// (medians of fourteen rounds of the three: 0.118, 0.124 and 0.136 s at
// 16, 8 and 4; 16 was ahead of 8 in nine of them).
const sealWindow = 8

// slabBytes is the unit segment buffers are carved from. A default
// segment is 6 948 bytes, which allocated alone occupies an 8 192-byte
// size class; nine to a slab waste 5 % instead of 18 %.
const slabBytes = 64 << 10

// sealing is one cut segment on its way to the chain. The emitter fills
// everything fixed at the cut; run, on its own goroutine, fills the rest
// except prevHash and the footer, which wait for the segment before it.
type sealing struct {
	buf    []byte            // header ‖ body ‖ footer, exact size
	events []trace.Event     // the segment's records, recycled
	leaves [][HashBytes]byte // body-tree scratch, recycled
	done   sync.WaitGroup    // run has finished with buf
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
	segs      [][]byte          // chained segments, in order
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
// (index, records), in one zeroed buffer of the segment's exact size, and
// starts the goroutine that fills in the body. Called with mu held and
// len(s.pending) > 0. Waiting here for the oldest sealer holds mu across a
// block, which is safe because no sealer ever takes it.
func (s *Sink) seal() {
	if s.n == sealWindow {
		s.collect()
	}
	nk, le := s.kinds, binary.LittleEndian
	j := &s.window[(s.head+s.n)%sealWindow]
	s.n++
	j.events, s.pending = s.pending, j.events[:0]

	size := headerLen(nk) + len(j.events)*RecordBytes + HashBytes
	if len(s.slab) < size {
		s.slab = make([]byte, max(size, slabBytes))
	}
	j.buf, s.slab = s.slab[:size:size], s.slab[size:]
	le.PutUint32(j.buf[0:], Magic)
	le.PutUint32(j.buf[4:], Version)
	le.PutUint32(j.buf[8:], s.segIndex)
	le.PutUint32(j.buf[12:], uint32(nk))
	le.PutUint32(j.buf[16:], uint32(len(j.events)))
	le.PutUint64(j.buf[20:], j.events[0].Seq)
	le.PutUint64(j.buf[28:], j.events[len(j.events)-1].Seq)
	s.segIndex++
	j.done.Add(1)
	// A go statement over a func value without arguments allocates
	// nothing; one that passes nk allocates a closure to carry it, every
	// cut. A pool of sealers would need stopping (DESIGN §12).
	if j.start == nil {
		j.start = func() { j.run(nk) }
	}
	go j.start()
}

// run encodes the records straight into the segment's body, counts them
// per kind in the header's delta words, and then hashes the body into
// bodyRoot. It touches nothing but its own slot, so it needs no lock and
// an abandoned sink leaves nothing behind once it returns.
func (j *sealing) run(nk int) {
	defer j.done.Done()
	le := binary.LittleEndian
	body := j.buf[headerLen(nk):headerLen(nk)]
	for _, ev := range j.events {
		body = appendRecord(body, ev)
		if int(ev.Kind) < nk {
			delta := j.buf[headerFixedBytes+8*int(ev.Kind):]
			le.PutUint64(delta, le.Uint64(delta)+1)
		}
	}
	var root [HashBytes]byte
	root, j.leaves = bodyRoot(body, j.leaves)
	copy(j.buf[bodyRootOff:], root[:])
}

// collect waits for the oldest cut segment's body and chains it: prevHash
// in, header hashed, footer out. Called with mu held and s.n > 0.
func (s *Sink) collect() {
	j := &s.window[s.head]
	s.head, s.n = (s.head+1)%sealWindow, s.n-1
	j.done.Wait()
	copy(j.buf[prevHashOff:], s.prev[:])
	s.prev = sha256.Sum256(j.buf[:headerLen(s.kinds)])
	copy(j.buf[len(j.buf)-HashBytes:], s.prev[:])
	s.segs = append(s.segs, j.buf)
	s.segHashes = append(s.segHashes, s.prev)
	j.buf = nil
}

// join chains every segment cut so far. Called with mu held.
func (s *Sink) join() {
	for s.n > 0 {
		s.collect()
	}
}

// Close seals the final (short) segment and returns once every segment
// is chained, so no goroutine of the sink outlives it. Idempotent; events
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
}

// Bytes returns a copy of the sealed ledger. Call Close first for the
// complete stream; before Close it returns the segments cut so far.
func (s *Sink) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.join()
	size := 0
	for _, seg := range s.segs {
		size += len(seg)
	}
	out := make([]byte, 0, size)
	for _, seg := range s.segs {
		out = append(out, seg...)
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
