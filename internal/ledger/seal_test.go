package ledger

// Tests for the shape of sealing rather than its bytes (witness_test.go
// has those): bodies are hashed on goroutines the emitter starts and
// collects, so the bytes must not depend on the host's schedule, every
// reader must see the segments cut so far, nothing may outlive the sink,
// and a segment must cost about its packed size in allocation and in what
// the sink holds.

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestSealScheduleIndependence: the witness streams reproduce the pinned
// lines (bytes TestLedgerWitness verifies) with one host thread and with
// four, and a sink fed through a log by its one producer, with zero to four
// readers on goroutines of their own joining the window underneath it,
// seals the same bytes every time.
func TestSealScheduleIndependence(t *testing.T) {
	want := loadPinned(t, ledgerWitnessPath)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		witnessRuns(func(key string, s *Sink) {
			if got := sinkLine(s); got != want[key] {
				t.Errorf("GOMAXPROCS %d: %s moved off the ledger witness:\n got %s\nwant %s", procs, key, got, want[key])
			}
		})
		runtime.GOMAXPROCS(prev)
	}

	// The producer emits through a trace.Log, as a kernel does, on the one
	// goroutine that owns the log; the readers ask the sink how far it has
	// sealed, and each question joins the sealers in flight.
	const events = 24_000
	var alone []byte
	for readers := 0; readers <= 4; readers++ {
		l := trace.New(64)
		s := NewSink(Config{SegmentEvents: 7})
		l.SetSink(s)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if n := s.Segments(); n > int(s.Recorded())/7 {
							t.Errorf("%d readers: %d segments of 7 from %d events", readers, n, s.Recorded())
						}
					}
				}
			}()
		}
		for i := 0; i < events; i++ {
			l.Emit(trace.Kind(1+i%(trace.NumKinds()-1)), uint32(i), 7, uint64(i))
		}
		close(stop)
		wg.Wait()
		s.Close()
		got := s.Bytes()
		rep, err := Verify(got)
		if err != nil {
			t.Fatalf("%d readers: %v", readers, err)
		}
		if len(rep.Events) != events || s.Dropped() != 0 {
			t.Fatalf("%d readers: replayed %d events and dropped %d, want %d and 0", readers, len(rep.Events), s.Dropped(), events)
		}
		if readers == 0 {
			alone = got
		} else if !bytes.Equal(got, alone) {
			t.Errorf("%d readers: the sink sealed other bytes than with none", readers)
		}
	}
}

// TestSinkJoinsBeforeAnswering: Segments, Root and Bytes, each the first
// call on a sink that was never closed, answer for every segment cut so
// far, including more of them than the in-flight window holds.
func TestSinkJoinsBeforeAnswering(t *testing.T) {
	for _, se := range []int{1, 3, 256} {
		for k := 0; k <= 2*sealWindow+1; k++ {
			events := genEvents(k*se, uint64(se))
			fill := func() *Sink {
				s := NewSink(Config{SegmentEvents: se})
				for _, ev := range events {
					s.Record(ev)
				}
				return s
			}
			rep, err := Verify(fill().Bytes())
			if err != nil {
				t.Fatalf("%d × %d events, unclosed: %v", k, se, err)
			}
			if len(rep.Segments) != k || len(rep.Events) != k*se {
				t.Errorf("%d × %d events: Bytes holds %d segments and %d events", k, se, len(rep.Segments), len(rep.Events))
			}
			if got := fill().Segments(); got != k {
				t.Errorf("%d × %d events: Segments() = %d", k, se, got)
			}
			if got := fill().Root(); got != rep.Root {
				t.Errorf("%d × %d events: Root() is not the root of the %d segments cut", k, se, k)
			}
		}
	}
}

// TestSinkLeavesNoGoroutines: Close returns with every sealer finished,
// and a sink dropped with segments in flight is not kept alive by them.
func TestSinkLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	settle := func(when string) {
		t.Helper()
		// A sealer signals the emitter before it returns, so it can still
		// be counted for an instant after the join.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the sink existed", when, runtime.NumGoroutine(), base)
			}
		}
	}
	events := genEvents(5_000, 5)
	s := NewSink(Config{SegmentEvents: 16})
	for _, ev := range events {
		s.Record(ev)
	}
	s.Close()
	settle("after Close")

	s = NewSink(Config{SegmentEvents: 16})
	for _, ev := range events[:1_000] {
		s.Record(ev)
	}
	if _, err := Verify(s.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[1_000:] {
		s.Record(ev)
	}
	s = nil // dropped with a full window, never joined
	settle("after dropping an unclosed sink")
}

// packedSize is the size of events held as one sealed segment, counted
// from the layout packSegment documents rather than by packing them, with a
// recency list of its own.
func packedSize(events []trace.Event) int {
	uv := func(x uint64) int {
		n := 1
		for ; x >= 0x80; x >>= 7 {
			n++
		}
		return n
	}
	// A zero gap or aux is left out; a kind past 30 takes a byte of its
	// own after the head.
	field := func(x uint64) int {
		if x == 0 {
			return 0
		}
		return uv(x)
	}
	// Zero codes as 0, the i-th most recent of the last fifteen distinct
	// non-zero values as i, any other value as itself plus 15.
	var list []uint32
	code := func(v uint32) uint64 {
		if v == 0 {
			return 0
		}
		c := uint64(v) + 15
		if i := slices.Index(list, v); i >= 0 {
			c = uint64(i) + 1
			list = slices.Delete(list, i, i+1)
		}
		list = slices.Insert(list, 0, v)
		list = list[:min(len(list), 15)]
		return c
	}
	size := HashBytes + uv(events[0].Seq) + uv(uint64(len(events)))
	prev := events[0].Seq - 1
	for _, ev := range events {
		size += 1 + field(ev.Seq-prev-1) + field(ev.Aux)
		if ev.Kind >= kindEscape {
			size++
		}
		// Both codes below 16 share a byte; otherwise each is a uvarint.
		if oc, ac := code(ev.Obj), code(ev.Arg); oc < 16 && ac < 16 {
			size++
		} else {
			size += uv(oc) + uv(ac)
		}
		prev = ev.Seq
	}
	return size
}

// recencyRows are records whose objects the recency list holds, or has
// just evicted: a value named again as obj at every distance from 0 to 15
// (one past the list's end), and as arg (which shares the list) at every
// distance from 1, arg equal to obj, a zero arg beside an obj the list
// holds, values whose codes cross the nibble and the one-byte uvarint
// boundaries (1 codes as 16, 112 and 113 as 127 and 128) and
// math.MaxUint32, whose code overflows 32 bits, and the escaped kinds
// inside paired records. Sequence numbers follow seq.
func recencyRows(seq uint64) []trace.Event {
	var events []trace.Event
	add := func(kind trace.Kind, obj, arg uint32) {
		seq++
		events = append(events, trace.Event{Seq: seq, Kind: kind, Obj: obj, Arg: arg, Aux: seq % 3})
	}
	fresh := uint32(1_000)
	named := func(n int) { // n values the list has not held, as obj
		for ; n > 0; n-- {
			fresh++
			add(7, fresh, 0)
		}
	}
	for d := 0; d <= 15; d++ {
		fresh++
		v := fresh
		add(3, v, 0)
		named(d)
		add(9, v, 0) // v as obj, d values after it
		fresh++
		w := fresh
		add(3, w, 0)
		named(d - 1)
		fresh++
		add(8, fresh, w) // w as arg, d values after it
	}
	for _, v := range []uint32{1, 112, 113, 127, 128, math.MaxUint32} {
		add(3, v, v)    // a miss, then arg == obj
		add(3, 5, v)    // a miss beside a value named just before
		add(3, v, 0)    // both held, arg zero
		add(19, v, v+1) // and its successor, zero past math.MaxUint32
	}
	for _, kind := range []trace.Kind{31, 255} {
		add(kind, 5, 0)
		add(kind, 5, 5)
		add(kind, math.MaxUint32, 5)
		add(kind, 7, 9) // two misses
	}
	return events
}

// TestLedgerPackedRecords: every record packSegment writes comes back from
// appendWire as appendRecord writes it, whatever its kind (in the head, at
// the escape and past it), whichever of its gap, arg and aux are zero or
// one, at the widest gap and object, and wherever its obj and arg sit in
// the recency list (recencyRows), and the segment takes the bytes the
// layout says. The kinds past the header's are rebuilt though no delta
// counts them. The records are cut into segments of one, of two, of
// seventeen and of all of them, so the list also starts afresh inside the
// recency rows.
func TestLedgerPackedRecords(t *testing.T) {
	var events []trace.Event
	seq := uint64(100)
	for _, kind := range []trace.Kind{0, 25, 30, 31, 255} {
		for _, gap := range []uint64{0, 1, math.MaxUint64} {
			for _, obj := range []uint32{0, math.MaxUint32} {
				for _, arg := range []uint32{0, 1, math.MaxUint32} {
					for _, aux := range []uint64{0, 1, math.MaxUint64} {
						seq += gap + 1
						events = append(events, trace.Event{Seq: seq, Kind: kind, Obj: obj, Arg: arg, Aux: aux})
					}
				}
			}
		}
	}
	events = append(events, recencyRows(seq)...)
	nk := trace.NumKinds()
	for _, n := range []int{1, 2, 17, len(events)} {
		for from := 0; from < len(events); from += n {
			seg := events[from:min(from+n, len(events))]
			packed := packSegment(nil, seg)
			if want := packedSize(seg); len(packed) != want {
				t.Fatalf("%d records from %d packed into %d bytes, the layout says %d", len(seg), from, len(packed), want)
			}
			var zero [HashBytes]byte
			wire := appendWire(nil, 0, nk, packed, &zero, &zero)
			body := wire[headerLen(nk) : len(wire)-HashBytes]
			if len(body) != len(seg)*RecordBytes {
				t.Fatalf("%d records from %d rebuilt into a body of %d bytes", len(seg), from, len(body))
			}
			for i, ev := range seg {
				if got, want := body[i*RecordBytes:(i+1)*RecordBytes], appendRecord(nil, ev); !bytes.Equal(got, want) {
					t.Fatalf("record %d (%+v) rebuilt as %x, appendRecord writes %x", from+i, ev, got, want)
				}
			}
		}
	}
}

// TestSealAllocBound: a sealed segment costs its share of a slab of packed
// segments and of the ledger's two index slices, not its wire bytes (6 948
// of them, which the sink held until it kept segments packed), a body, a
// header, a leaf slice, a regrown copy of the ledger so far (seven objects
// and about seven times the bytes at the commit the byte bound was first
// written against) or a closure to start its sealer (one object a segment
// until each slot kept its own). Counted exactly over a thousand warm
// segments of full-width records, about 5.5 KB packed: slabs come one in
// eleven, the index slices grow by a quarter, so about 0.12 objects a
// segment.
//
// Warm includes the host's goroutines. A sealer that finishes on another
// processor leaves its goroutine on that processor's free list, which hands
// it back only once it holds 64, so the runtime allocates goroutines until
// every processor's list is that full: a few hundred in all, more with
// more processors (a first round read 0.30 to 0.41 objects a segment at
// GOMAXPROCS 8, the second one 0.12). So a round over the bound is
// measured again, up to four times; the closure cost one object a segment
// in every round.
func TestSealAllocBound(t *testing.T) {
	const segments = 1_000
	events := genEvents(DefaultSegmentEvents, 3)
	seq := uint64(0)
	s := NewSink(Config{})
	oneSegment := func() {
		for i := range events {
			seq++
			events[i].Seq = seq
			s.Record(events[i])
		}
	}
	for i := 0; i < 4*sealWindow; i++ { // every slot's slices at full size
		oneSegment()
	}
	// The measured segments start past this one; their first sequence
	// numbers pack in as many bytes as its.
	packed := uint64(packedSize(events))
	slabShare := slabBytes / (slabBytes / packed)
	for round := 1; ; round++ {
		before := s.Segments()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < segments; i++ {
			oneSegment()
		}
		after := s.Segments()
		runtime.ReadMemStats(&m1)
		if got := after - before; got != segments {
			t.Fatalf("measured %d segments, want %d", got, segments)
		}
		objs := float64(m1.Mallocs-m0.Mallocs) / segments
		t.Logf("round %d: %.3f objects and %.0f bytes allocated per segment of %d packed", round, objs, float64(m1.TotalAlloc-m0.TotalAlloc)/segments, packed)
		// Packed segments come as many to a slab as fit whole, so a
		// segment is charged its slab's share; the index slices' growth
		// and the goroutines fit in a tenth on top.
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, segments*slabShare*11/10; got > limit {
			t.Errorf("%d bytes allocated for %d segments of %d packed, want at most %d", got, segments, packed, limit)
		}
		if objs <= 0.2 {
			break
		}
		if round == 4 {
			t.Errorf("%.3f objects allocated per segment in each of %d rounds, want at most 0.2", objs, round)
			break
		}
	}
	if rep, err := Verify(s.Bytes()); err != nil || uint64(len(rep.Events)) != seq {
		t.Fatalf("the measured ledger does not replay its %d events: %v", seq, err)
	}
}

// TestSealedBytesPerEvent: a closed sink holds a kernel-shaped stream in
// at most 7 bytes an event, live heap, where its wire form takes 27. The
// stream is emitted through a trace.Log, so its sequence numbers are
// consecutive, with kinds below 31, object ids below 2^17 and small arg
// and aux: every record packs into 2 to 6 bytes, and the index slices, the
// segment heads and the last slab's tail add under one.
//
// The stream has no locality: its objects are drawn uniformly from 2^17,
// so the recency list holds almost none of them, and the packed segments
// alone must take at most 6.1 bytes an event, counted exactly (5.99 with
// every index written as a plain uvarint, 6.01 with the recency codes, 7.0
// with a byte more a record). The live-heap reading is taken on one host
// thread, as the scenario's hostAllocs takes its counts: the goroutines the
// sealers leave parked on each processor's free list would otherwise count
// toward it, more of them the more processors the host has (6.38 at
// GOMAXPROCS 1, about 6.5 at 2).
func TestSealedBytesPerEvent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const events = 1 << 18
	l := trace.New(64)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s := NewSink(Config{})
	l.SetSink(s)
	x := uint64(1)
	for i := 0; i < events; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		l.Emit(trace.Kind(1+(x>>8)%uint64(trace.NumKinds()-1)), uint32(x>>20)%(1<<17), uint32(x>>40)%64, (x>>50)%128)
	}
	s.Close()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	held := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / events
	perEvent := float64(PackedBytes(s)) / events
	wire := s.Bytes()
	t.Logf("%.2f bytes an event held, %.3f packed, %.2f on the wire", held, perEvent, float64(len(wire))/events)
	if held > 7 {
		t.Errorf("the closed sink holds %.2f bytes an event, want at most 7", held)
	}
	if perEvent > 6.1 {
		t.Errorf("the sink packs a stream without locality in %.3f bytes an event, want at most 6.1", perEvent)
	}
	if rep, err := Verify(wire); err != nil || len(rep.Events) != events {
		t.Fatalf("the ledger does not replay its %d events: %v", events, err)
	}
}
