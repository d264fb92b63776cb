package gdp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
)

// TestStoppedEntryDoesNotStrandReadyProcess: a process stopped while it
// sits in the dispatching port is a stale entry, not the end of the queue.
// The processor that draws it goes on to the ready process behind it in the
// same dispatch — no idle quantum per stale entry — and Run does not report
// "no work" while that process waits.
func TestStoppedEntryDoesNotStrandReadyProcess(t *testing.T) {
	s := newSystem(t, 1)
	out, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	dom := mustDomain(t, s, []isa.Instr{
		isa.MovI(0, 7),
		isa.Store(0, 0, 0),
		isa.Halt(),
	})
	// Three entries ahead of the ready process: the dispatching port serves
	// the higher priority first.
	var stopped []obj.AD
	for i := 0; i < 3; i++ {
		p, f := s.Spawn(dom, SpawnSpec{Priority: 9, AArgs: [4]obj.AD{out}})
		if f != nil {
			t.Fatal(f)
		}
		// What pm.Basic.Stop does to a ready process: the stop count, the
		// state, and the entry left where it is.
		var pv process.Proc
		s.Procs.Open(p, obj.RightWrite, &pv)
		pv.SetStopCount(1)
		pv.SetState(process.StateStopped)
		if f := pv.Fault(); f != nil {
			t.Fatal(f)
		}
		stopped = append(stopped, p)
	}
	ready, f := s.Spawn(dom, SpawnSpec{Priority: 1, AArgs: [4]obj.AD{out}})
	if f != nil {
		t.Fatal(f)
	}

	elapsed, f := s.Run(0)
	if f != nil {
		t.Fatal(f)
	}
	if st, _ := s.Procs.StateOf(ready); st != process.StateTerminated {
		t.Fatalf("Run returned after %v with the ready process %v behind %d stopped entries", elapsed, st, len(stopped))
	}
	if v, _ := s.Table.ReadDWord(out, 0); v != 7 {
		t.Fatalf("ready process wrote %d, want 7", v)
	}
	for _, p := range stopped {
		mustState(t, s, p, process.StateStopped)
	}
	// Each skipped entry is charged as the receive it is, and nothing else:
	// the ready process is bound in the first quantum, not the fourth.
	cpu := s.CPUs[0]
	work := vtime.CostDispatch + 2*vtime.CostALU + vtime.CostMove
	if busy, want := cpu.Clock.Now()-cpu.IdleCycles, 3*vtime.CostReceive+work; busy != want {
		t.Fatalf("busy cycles = %v, want %v (three skipped receives and the program)", busy, want)
	}
	if n, _ := s.Ports.Count(s.Dispatch); n != 0 {
		t.Fatalf("%d entries left at the dispatching port", n)
	}
}
