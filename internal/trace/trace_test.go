package trace

import (
	"strings"
	"testing"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	if l.Enabled() {
		t.Fatal("nil log reports enabled")
	}
	l.Emit(EvSend, 1, 2, 3) // must not panic
	if l.Seq() != 0 || l.Counts()[EvSend] != 0 {
		t.Fatal("nil log recorded an event")
	}
	if got := l.Events(); got != nil {
		t.Fatalf("nil log returned events: %v", got)
	}
	l.Reset()
	var b strings.Builder
	if err := l.Dump(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil dump: %q %v", b.String(), err)
	}
}

func TestEmitAndCounters(t *testing.T) {
	l := New(8)
	l.Emit(EvObjCreate, 5, uint32(2), 0)
	l.Emit(EvSend, 7, 9, 42)
	l.Emit(EvSend, 7, 10, 43)
	if l.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", l.Seq())
	}
	if l.Counts()[EvSend] != 2 || l.Counts()[EvObjCreate] != 1 || l.Counts()[EvRecv] != 0 {
		t.Fatalf("counters wrong: %v", l.Counts())
	}
	ev := l.Events()
	if len(ev) != 3 || ev[0].Kind != EvObjCreate || ev[2].Aux != 43 {
		t.Fatalf("events wrong: %v", ev)
	}
	for i, e := range ev {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Emit(EvADStore, uint32(i), 0, 0)
	}
	ev := l.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Obj != uint32(6+i) || e.Seq != uint64(7+i) {
			t.Fatalf("event %d = %+v, want obj %d", i, e, 6+i)
		}
	}
	if l.Seq() != 10 {
		t.Fatalf("seq = %d after wrap, want 10", l.Seq())
	}
}

func TestDumpDeterministic(t *testing.T) {
	run := func() string {
		l := New(16)
		l.Emit(EvSpawn, 3, 0, 0)
		l.Emit(EvDispatch, 3, 1, 0)
		l.Emit(EvGCPhase, 2, 0, 0)
		var b strings.Builder
		if err := l.Dump(&b); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteCounts(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("dumps differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "proc.dispatch") || !strings.Contains(a, "gc.phase") {
		t.Fatalf("dump missing kinds:\n%s", a)
	}
}

func TestResetClearsButKeepsSeq(t *testing.T) {
	l := New(4)
	l.Emit(EvSend, 1, 0, 0)
	l.Reset()
	if len(l.Events()) != 0 || l.Counts()[EvSend] != 0 {
		t.Fatal("reset did not clear")
	}
	l.Emit(EvSend, 2, 0, 0)
	if ev := l.Events(); len(ev) != 1 || ev[0].Seq != 2 {
		t.Fatalf("seq restarted after reset: %v", ev)
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := EvNone; k < numKinds; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// collectSink records everything it is handed, for hook-order checks.
type collectSink struct{ got []Event }

func (c *collectSink) Record(ev Event) { c.got = append(c.got, ev) }

func TestSinkReceivesEveryEmission(t *testing.T) {
	l := New(4) // ring smaller than the stream: the sink must see past wrap
	sink := &collectSink{}
	l.SetSink(sink)
	for i := 0; i < 10; i++ {
		l.Emit(EvSend, uint32(i), 0, 0)
	}
	if len(sink.got) != 10 {
		t.Fatalf("sink saw %d events, want 10", len(sink.got))
	}
	for i, ev := range sink.got {
		if ev.Seq != uint64(i+1) || ev.Obj != uint32(i) {
			t.Fatalf("sink event %d out of order: %v", i, ev)
		}
	}
	l.SetSink(nil)
	l.Emit(EvSend, 99, 0, 0)
	if len(sink.got) != 10 {
		t.Fatalf("detached sink still receiving")
	}
	if l.Sink() != nil {
		t.Fatalf("Sink() non-nil after detach")
	}
}

func TestSnapshotConsistentAndNilSafe(t *testing.T) {
	var nilLog *Log
	if seq, counts := nilLog.Snapshot(); seq != 0 || len(counts) != NumKinds() {
		t.Fatalf("nil Snapshot: seq=%d len=%d", seq, len(counts))
	}
	nilLog.SetSink(&collectSink{}) // must not panic
	l := New(16)
	l.Emit(EvSend, 1, 0, 0)
	l.Emit(EvSend, 2, 0, 0)
	l.Emit(EvRecv, 3, 0, 0)
	seq, counts := l.Snapshot()
	if seq != 3 || counts[EvSend] != 2 || counts[EvRecv] != 1 {
		t.Fatalf("snapshot wrong: seq=%d counts=%v", seq, counts)
	}
	// Reset clears ring and counters but leaves the sink attached and the
	// sequence running (see Reset's doc for the ledger interaction).
	sink := &collectSink{}
	l.SetSink(sink)
	l.Reset()
	l.Emit(EvSend, 4, 0, 0)
	if len(sink.got) != 1 || sink.got[0].Seq != 4 {
		t.Fatalf("post-Reset emission lost or renumbered: %v", sink.got)
	}
}
