package gdp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
)

func TestWatchTimeoutExpiresSilentlyWhenServedInTime(t *testing.T) {
	s := newSystem(t, 1)
	prt, _ := s.Ports.Create(s.Heap, 2, port.FIFO)
	dom := mustDomain(t, s, []isa.Instr{
		isa.Recv(1, 0),
		isa.Halt(),
	})
	p, _ := s.Spawn(dom, SpawnSpec{AArgs: [4]obj.AD{prt}})
	if _, f := s.Run(0); f != nil {
		t.Fatal(f)
	}
	mustState(t, s, p, process.StateBlocked)
	s.WatchTimeout(s.Now()+50_000, p, prt)
	// Serve the receive well before the deadline.
	msg, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	if ok, f := s.SendMessage(prt, msg, 0); f != nil || !ok {
		t.Fatalf("SendMessage: %v %v", ok, f)
	}
	if _, f := s.Run(0); f != nil {
		t.Fatal(f)
	}
	mustState(t, s, p, process.StateTerminated)
	// Let the watchdog expire; nothing should change.
	for s.TimersPending() > 0 {
		if _, f := s.Step(10_000); f != nil {
			t.Fatal(f)
		}
	}
	mustState(t, s, p, process.StateTerminated)
	if c, _ := s.Procs.FaultCode(p); c != obj.FaultNone {
		t.Fatalf("spurious fault %v", c)
	}
}

func TestWatchTimeoutOnBlockedSender(t *testing.T) {
	s := newSystem(t, 1)
	prt, _ := s.Ports.Create(s.Heap, 1, port.FIFO)
	fport, _ := s.Ports.Create(s.Heap, 4, port.FIFO)
	msg, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	if ok, f := s.SendMessage(prt, msg, 0); f != nil || !ok {
		t.Fatal(f)
	}
	dom := mustDomain(t, s, []isa.Instr{
		isa.MovI(0, 0),
		isa.Send(1, 0, 0), // port full: blocks
		isa.Halt(),
	})
	p, _ := s.Spawn(dom, SpawnSpec{FaultPort: fport, AArgs: [4]obj.AD{prt, msg}})
	if _, f := s.Run(0); f != nil {
		t.Fatal(f)
	}
	mustState(t, s, p, process.StateBlocked)
	s.WatchTimeout(s.Now()+2_000, p, prt)
	if _, f := s.Run(0); f != nil {
		t.Fatal(f)
	}
	mustState(t, s, p, process.StateFaulted)
	if st, f := s.Ports.Inspect(prt); f != nil || len(st.Senders) != 0 {
		t.Fatalf("%d senders still waiting after timeout (%v)", len(st.Senders), f)
	}
	// The queued message is untouched; only the parked one was pulled.
	if n, _ := s.Ports.Count(prt); n != 1 {
		t.Fatalf("Count = %d", n)
	}
}
