package ledger

// Tests for the shape of sealing rather than its bytes (witness_test.go
// has those): bodies are hashed on goroutines the emitter starts and
// collects, so the bytes must not depend on the host's schedule, every
// reader must see the segments cut so far, nothing may outlive the sink,
// and a segment must cost about its own size in allocation.

import (
	"bytes"
	"runtime"
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

// TestSealAllocBound: a sealed segment costs its share of a buffer slab
// and of the ledger's two index slices, not a body, a header, a leaf slice,
// a regrown copy of the ledger so far (seven objects and about seven times
// the bytes at the commit the byte bound was written against) or a closure
// to start its sealer (one object a segment until each slot kept its own).
// Counted exactly over a thousand warm segments: slabs come one in nine,
// the index slices double, so about 0.12 objects a segment.
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
	segBytes := uint64(headerLen(trace.NumKinds()) + DefaultSegmentEvents*RecordBytes + HashBytes)
	seq := uint64(0)
	s := NewSink(Config{})
	oneSegment := func() {
		for _, ev := range events {
			seq++
			ev.Seq = seq
			s.Record(ev)
		}
	}
	for i := 0; i < 4*sealWindow; i++ { // every slot's slices at full size
		oneSegment()
	}
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
		t.Logf("round %d: %.3f objects and %.0f bytes allocated per segment of %d", round, objs, float64(m1.TotalAlloc-m0.TotalAlloc)/segments, segBytes)
		// Segment buffers come nine to a slab, so a thousand segments are
		// charged 111 slabs or 112; the index slices' doublings and the
		// goroutines fit in the rest of the tenth.
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, segments*segBytes*11/10; got > limit {
			t.Errorf("%d bytes allocated for %d segments of %d, want at most %d", got, segments, segBytes, limit)
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
