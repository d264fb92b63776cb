package gdp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/vtime"
)

// TestDispatcherDamage: a failure inside the dispatcher's own transitions
// is system damage, never a fault of the process that happened to be on
// the processor. Each row doctors a world through public calls only so
// that a transition the kernel makes on its own behalf fails. Step must
// return that fault, typed; no process's recorded fault code may change
// and nothing may reach a fault port; and the next Step must return the
// same fault, because the damage latch is never cleared.
func TestDispatcherDamage(t *testing.T) {
	rows := []struct {
		name string
		// doctor builds the row's world on s and damages it, or arranges
		// for the next Step to. It reports the processes of the world
		// and the object the fault names.
		doctor func(t *testing.T, s *System, fport obj.AD) (procs []obj.AD, on obj.AD)
		code   obj.FaultCode
	}{
		{"send wakes a receiver into a full dispatch port", func(t *testing.T, s *System, fport obj.AD) ([]obj.AD, obj.AD) {
			prt, msg := damagePort(t, s, 1), damageFiller(t, s)
			recv := damageSpawn(t, s, fport, prt, obj.NilAD, []isa.Instr{isa.Recv(1, 0), isa.Halt()})
			damageStep(t, s, 100_000) // the receiver parks at prt
			send := damageSpawn(t, s, fport, prt, msg, []isa.Instr{isa.MovI(0, 0), isa.Send(1, 0, 0), isa.Halt()})
			damageStep(t, s, 1) // the sender is bound, its send not yet executed
			fillDispatch(t, s)
			return []obj.AD{recv, send}, s.Dispatch
		}, obj.FaultBounds},
		{"receive unparks a sender into a full dispatch port", func(t *testing.T, s *System, fport obj.AD) ([]obj.AD, obj.AD) {
			prt, msg := damagePort(t, s, 1), damageFiller(t, s)
			if ok, f := s.SendMessage(prt, damageFiller(t, s), 0); !ok || f != nil {
				t.Fatalf("filling the port: %v %v", ok, f)
			}
			send := damageSpawn(t, s, fport, prt, msg, []isa.Instr{isa.MovI(0, 0), isa.Send(1, 0, 0), isa.Halt()})
			damageStep(t, s, 100_000) // the sender parks at the full port
			recv := damageSpawn(t, s, fport, prt, obj.NilAD, []isa.Instr{isa.MovI(0, 0), isa.Recv(1, 0), isa.Halt()})
			damageStep(t, s, 1) // the receiver is bound, its receive not yet executed
			fillDispatch(t, s)
			return []obj.AD{send, recv}, s.Dispatch
		}, obj.FaultBounds},
		{"a non-process at the dispatch port", func(t *testing.T, s *System, fport obj.AD) ([]obj.AD, obj.AD) {
			bystander := damageSpawn(t, s, fport, obj.NilAD, obj.NilAD, []isa.Instr{isa.Halt()})
			stray := damageFiller(t, s)
			// Priority 1 is drawn before the bystander's 0.
			if blocked, _, f := s.Ports.Send(s.Dispatch, stray, 1, obj.NilAD); blocked || f != nil {
				t.Fatalf("sending to the dispatch port: %v %v", blocked, f)
			}
			return []obj.AD{bystander}, stray
		}, obj.FaultType},
		{"a native body's undefined status", func(t *testing.T, s *System, fport obj.AD) ([]obj.AD, obj.AD) {
			body := NativeBodyFunc(func(*System, obj.AD) (vtime.Cycles, BodyStatus, *obj.Fault) {
				return 10, BodyDone + 1, nil
			})
			p, f := s.SpawnNative(body, SpawnSpec{FaultPort: fport})
			if f != nil {
				t.Fatal(f)
			}
			return []obj.AD{p}, p
		}, obj.FaultOddity},
		{"an external send wakes a receiver into a full dispatch port", func(t *testing.T, s *System, fport obj.AD) ([]obj.AD, obj.AD) {
			prt := damagePort(t, s, 1)
			recv := damageSpawn(t, s, fport, prt, obj.NilAD, []isa.Instr{isa.Recv(1, 0), isa.Halt()})
			damageStep(t, s, 100_000) // the receiver parks at prt
			fillDispatch(t, s)
			// The agent's send succeeded; the damage is the dispatcher's,
			// and surfaces at the next Step.
			if ok, f := s.SendMessage(prt, damageFiller(t, s), 0); !ok || f != nil {
				t.Fatalf("SendMessage = %v, %v; want true, nil", ok, f)
			}
			return []obj.AD{recv}, s.Dispatch
		}, obj.FaultBounds},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			s := newSystem(t, 1)
			fport := damagePort(t, s, 4)
			procs, on := row.doctor(t, s, fport)
			_, f := s.Step(100_000)
			if f == nil || f.Code != row.code || f.AD.Index != on.Index {
				t.Fatalf("Step = %v, want %v on object %d", f, row.code, on.Index)
			}
			for _, p := range procs {
				if c, err := s.Procs.FaultCode(p); err != nil || c != obj.FaultNone {
					t.Errorf("process %d charged with %v (%v)", p.Index, c, err)
				}
			}
			if n := s.Stats().FaultsSent; n != 0 {
				t.Errorf("%d processes sent to a fault port", n)
			}
			if _, again := s.Step(100_000); again != f {
				t.Errorf("next Step = %v, want the same %v", again, f)
			}
		})
	}
}

// damagePort creates a FIFO port of the given capacity.
func damagePort(t *testing.T, s *System, capacity uint16) obj.AD {
	t.Helper()
	prt, f := s.Ports.Create(s.Heap, capacity, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	return prt
}

// damageFiller creates a small generic object to queue as a message.
func damageFiller(t *testing.T, s *System) obj.AD {
	t.Helper()
	g, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	return g
}

// damageSpawn starts prog with a0 = prt, a1 = msg and fport as its fault
// port.
func damageSpawn(t *testing.T, s *System, fport, prt, msg obj.AD, prog []isa.Instr) obj.AD {
	t.Helper()
	p, f := s.Spawn(mustDomain(t, s, prog), SpawnSpec{FaultPort: fport, AArgs: [4]obj.AD{prt, msg}})
	if f != nil {
		t.Fatal(f)
	}
	return p
}

// damageStep steps the healthy world once.
func damageStep(t *testing.T, s *System, quantum vtime.Cycles) {
	t.Helper()
	if _, f := s.Step(quantum); f != nil {
		t.Fatal(f)
	}
}

// fillDispatch queues filler objects at the dispatch port until it holds
// DispatchCapacity entries.
func fillDispatch(t *testing.T, s *System) {
	t.Helper()
	filler := damageFiller(t, s)
	for {
		n, f := s.Ports.Count(s.Dispatch)
		if f != nil {
			t.Fatal(f)
		}
		if n == DispatchCapacity {
			return
		}
		if blocked, _, f := s.Ports.Send(s.Dispatch, filler, 0, obj.NilAD); blocked || f != nil {
			t.Fatalf("filling the dispatch port at %d: %v %v", n, blocked, f)
		}
	}
}
