package workload

import (
	"testing"

	"repro/internal/gdp"
	"repro/internal/obj"
	"repro/internal/port"
)

// TestServerLoop drives one request server by hand: three session objects
// through the request port must come back on the reply port with every
// touched dword incremented exactly once.
func TestServerLoop(t *testing.T) {
	sys, err := gdp.New(gdp.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := ServerSpec{Demand: 10, Touches: 2, DomainCalls: 1}
	dom, callee, f := NewServerDomain(sys, spec)
	if f != nil {
		t.Fatal(f)
	}
	req, f := sys.Ports.Create(sys.Heap, 8, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	rep, f := sys.Ports.Create(sys.Heap, 8, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	if _, f := sys.Spawn(dom, gdp.SpawnSpec{
		TimeSlice: 5_000,
		AArgs:     [4]obj.AD{callee, obj.NilAD, req, rep},
	}); f != nil {
		t.Fatal(f)
	}
	var sessions []obj.AD
	for i := 0; i < 3; i++ {
		s, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
		if f != nil {
			t.Fatal(f)
		}
		sessions = append(sessions, s)
		if ok, f := sys.SendMessage(req, s, 0); f != nil || !ok {
			t.Fatalf("send %d: ok=%v f=%v", i, ok, f)
		}
	}
	if _, f := sys.Run(1_000_000); f != nil {
		t.Fatal(f)
	}
	got := 0
	for {
		msg, ok, f := sys.ReceiveMessage(rep)
		if f != nil {
			t.Fatal(f)
		}
		if !ok {
			break
		}
		got++
		_ = msg
	}
	if got != 3 {
		t.Fatalf("received %d replies, want 3", got)
	}
	for i, s := range sessions {
		for off := uint32(0); off < 8; off += 4 {
			v, f := sys.Table.ReadDWord(s, off)
			if f != nil {
				t.Fatal(f)
			}
			if v != 1 {
				t.Fatalf("session %d dword %d = %d, want 1", i, off/4, v)
			}
		}
		// Untouched dwords stay zero.
		v, f := sys.Table.ReadDWord(s, 8)
		if f != nil {
			t.Fatal(f)
		}
		if v != 0 {
			t.Fatalf("session %d dword 2 = %d, want 0", i, v)
		}
	}
}
