package ledger_test

import (
	"testing"

	"repro/internal/ledger"
	"repro/internal/scenario"
)

// TestLedgerKernelStreamBytesPerEvent: the sink holds a real kernel's event
// stream, the baseline preset's at seed 42 over 2 000 sessions (63 723
// events), in at most 3.5 packed bytes an event, and the ledger it seals
// replays every event. The recency codes take 3.32; with every obj and arg
// written in full, the layout before them, it took 4.11.
func TestLedgerKernelStreamBytesPerEvent(t *testing.T) {
	cfg, err := scenario.Preset("baseline", 2_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace, cfg.Ledger = true, true
	eng, err := scenario.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := eng.IM.Ledger
	s.Close()
	events := s.Recorded()
	perEvent := float64(ledger.PackedBytes(s)) / float64(events)
	t.Logf("%d events packed in %.3f bytes an event", events, perEvent)
	if perEvent > 3.5 {
		t.Errorf("the sink packs the kernel stream in %.3f bytes an event, want at most 3.5", perEvent)
	}
	if rep, err := ledger.Verify(s.Bytes()); err != nil || uint64(len(rep.Events)) != events {
		t.Fatalf("the ledger does not replay its %d events: %v", events, err)
	}
}
