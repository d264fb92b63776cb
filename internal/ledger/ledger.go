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
// Determinism discipline: the sink is *logically* asynchronous — Record
// is a cheap bounded enqueue and the expensive folding (hashing, segment
// sealing) happens in batches, modeling a consumer that drains
// DrainPerPump events every PumpEvery offered records. Crucially the
// drain schedule is driven by the event stream itself, never by host
// threads or wall-clock time, so backpressure drops are a pure function
// of (events, Config): two same-seed runs produce byte-identical ledgers
// including their drop counters, at every backend/cache corner. Host
// asynchrony would trade that determinism witness for timing-dependent
// drops; this design keeps both the bounded-queue semantics and the
// witness.
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
	// headerFixedBytes is the header length before the per-kind deltas.
	headerFixedBytes = 5*4 + 2*8 + 2*HashBytes
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

// Policy selects what Record does when the bounded queue is full.
type Policy uint8

const (
	// DropNewest rejects the offered event and counts it in the per-kind
	// drop counters — the production posture: the kernel never stalls on
	// its audit pipeline, and the loss is explicit in the ledger itself.
	DropNewest Policy = iota
	// Block drains the queue inline to make room — the never-lose-events
	// posture for verification runs, at the cost of unbounded Record
	// latency.
	Block
)

// Defaults for Config fields left zero.
const (
	DefaultSegmentEvents = 256
	DefaultQueueCap      = 1024
	DefaultDrainPerPump  = 256
	DefaultPumpEvery     = 256
)

// Config sizes the pipeline. The defaults (pump as many as arrive, queue
// deeper than a pump interval) never drop; overload configurations set
// DrainPerPump below PumpEvery to model a consumer slower than the
// producer, which exercises the DropNewest arm deterministically.
type Config struct {
	// SegmentEvents is the number of records per sealed segment.
	SegmentEvents int
	// QueueCap bounds the pending-event queue.
	QueueCap int
	// DrainPerPump is the modeled consumer bandwidth: events moved from
	// the queue into the batcher per pump.
	DrainPerPump int
	// PumpEvery schedules a pump after this many offered (accepted or
	// dropped) records — offered, not accepted, so a saturated queue
	// still drains instead of deadlocking the model.
	PumpEvery int
	// Policy is the full-queue behavior.
	Policy Policy
}

func (c Config) withDefaults() Config {
	if c.SegmentEvents <= 0 {
		c.SegmentEvents = DefaultSegmentEvents
	}
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.DrainPerPump <= 0 {
		c.DrainPerPump = DefaultDrainPerPump
	}
	if c.PumpEvery <= 0 {
		c.PumpEvery = DefaultPumpEvery
	}
	return c
}

// Sink is the batching pipeline. It implements trace.Sink; attach it with
// trace.Log.SetSink. All methods are safe for concurrent use (the trace
// log emits under its own lock, but the bench and tests drive sinks
// directly).
type Sink struct {
	mu  sync.Mutex
	cfg Config

	queue   []trace.Event // bounded FIFO, head first
	pending []trace.Event // records of the open (unsealed) segment
	offered int           // records offered since the last pump

	out       []byte            // sealed segment bytes
	segHashes [][HashBytes]byte // footer hash of every sealed segment
	prev      [HashBytes]byte   // last sealed segment's hash (chain state)
	segIndex  uint32

	counts      []uint64 // per-kind accepted, cumulative
	drops       []uint64 // per-kind dropped, cumulative
	sealedDrops []uint64 // drops already attributed to sealed segments

	recorded uint64 // accepted events, cumulative
	closed   bool
}

// NewSink returns a pipeline with cfg's zero fields defaulted.
func NewSink(cfg Config) *Sink {
	nk := trace.NumKinds()
	return &Sink{
		cfg:         cfg.withDefaults(),
		counts:      make([]uint64, nk),
		drops:       make([]uint64, nk),
		sealedDrops: make([]uint64, nk),
	}
}

// Record offers one event to the pipeline (the trace.Sink hook). After
// Close the sink is sealed: further events are counted as drops so the
// loss stays observable, but no segment changes.
func (s *Sink) Record(ev trace.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.drop(ev)
		return
	}
	s.offered++
	if len(s.queue) >= s.cfg.QueueCap {
		if s.cfg.Policy == Block {
			s.drain(len(s.queue))
		} else {
			s.drop(ev)
			s.maybePump()
			return
		}
	}
	s.queue = append(s.queue, ev)
	if int(ev.Kind) < len(s.counts) {
		s.counts[ev.Kind]++
	}
	s.recorded++
	s.maybePump()
}

func (s *Sink) drop(ev trace.Event) {
	if int(ev.Kind) < len(s.drops) {
		s.drops[ev.Kind]++
	}
}

func (s *Sink) maybePump() {
	if s.offered >= s.cfg.PumpEvery {
		s.offered = 0
		s.drain(s.cfg.DrainPerPump)
	}
}

// drain moves up to n queued events into the open segment, sealing as it
// fills. Called with mu held.
func (s *Sink) drain(n int) {
	if n > len(s.queue) {
		n = len(s.queue)
	}
	for _, ev := range s.queue[:n] {
		s.pending = append(s.pending, ev)
		if len(s.pending) >= s.cfg.SegmentEvents {
			s.seal()
		}
	}
	s.queue = append(s.queue[:0], s.queue[n:]...)
}

// seal commits the open segment: body root, header, chain hash. Called
// with mu held and len(s.pending) > 0.
func (s *Sink) seal() {
	nk := len(s.counts)
	countDelta := make([]uint64, nk)
	for _, ev := range s.pending {
		if int(ev.Kind) < nk {
			countDelta[ev.Kind]++
		}
	}

	body := make([]byte, 0, len(s.pending)*RecordBytes)
	leaves := make([][HashBytes]byte, len(s.pending))
	var rec []byte
	for i, ev := range s.pending {
		rec = appendRecord(rec[:0], ev)
		leaves[i] = leafHash(rec)
		body = append(body, rec...)
	}
	bodyRoot := merkleRoot(leaves)

	header := make([]byte, 0, headerLen(nk))
	header = binary.LittleEndian.AppendUint32(header, Magic)
	header = binary.LittleEndian.AppendUint32(header, Version)
	header = binary.LittleEndian.AppendUint32(header, s.segIndex)
	header = binary.LittleEndian.AppendUint32(header, uint32(nk))
	header = binary.LittleEndian.AppendUint32(header, uint32(len(s.pending)))
	header = binary.LittleEndian.AppendUint64(header, s.pending[0].Seq)
	header = binary.LittleEndian.AppendUint64(header, s.pending[len(s.pending)-1].Seq)
	header = append(header, s.prev[:]...)
	header = append(header, bodyRoot[:]...)
	for k := 0; k < nk; k++ {
		header = binary.LittleEndian.AppendUint64(header, countDelta[k])
	}
	for k := 0; k < nk; k++ {
		header = binary.LittleEndian.AppendUint64(header, s.drops[k]-s.sealedDrops[k])
		s.sealedDrops[k] = s.drops[k]
	}
	segHash := sha256.Sum256(header)

	s.out = append(s.out, header...)
	s.out = append(s.out, body...)
	s.out = append(s.out, segHash[:]...)
	s.segHashes = append(s.segHashes, segHash)
	s.prev = segHash
	s.segIndex++
	s.pending = s.pending[:0]
}

// Close drains the queue and seals the final (short) segment. Idempotent;
// events Recorded after Close are counted as drops. A segment already
// sealed is immutable from here on — in particular a trace.Log.Reset of
// the ring upstream has no effect on the ledger (see trace.Log.Reset).
func (s *Sink) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.drain(len(s.queue))
	if len(s.pending) > 0 {
		s.seal()
	}
}

// Bytes returns a copy of the sealed ledger. Call Close first for the
// complete stream; before Close it returns only fully sealed segments.
func (s *Sink) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.out...)
}

// Root is the Merkle root over the sealed segment hashes — the single
// commitment to the whole ledger.
func (s *Sink) Root() [HashBytes]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	return len(s.segHashes)
}

// Recorded reports the cumulative number of accepted events.
func (s *Sink) Recorded() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recorded
}

// Dropped reports the cumulative number of dropped events.
func (s *Sink) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, d := range s.drops {
		n += d
	}
	return n
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
