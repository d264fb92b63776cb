package gdp

import (
	"testing"

	"repro/internal/domain"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
)

// TestRefusedCallLeavesNoFrame: a call the processor refuses is refused
// before it pushes a frame, whichever kind of body the domain has; a
// dangling AD among the arguments is the caller's fault too, and the frame
// it was to be copied into unwinds. Each row spawns a caller whose program
// is one CALL through a1 and a HALT, with a fault port, and runs it until
// it faults. The fault must be the row's code, the caller's current context
// the one it had before the call, the table's live-object count unchanged,
// and a native body not entered.
func TestRefusedCallLeavesNoFrame(t *testing.T) {
	rows := []struct {
		name  string
		entry uint32
		// callee builds the domain the caller calls, on s; entered is
		// set if a native body runs. heap, when valid, is the caller's
		// heap.
		callee func(t *testing.T, s *System, entered *bool) (dom, heap obj.AD)
		// dangle passes a2, an object destroyed after the spawn.
		dangle bool
		code   obj.FaultCode
	}{
		{"a VM domain past its entry table", 5, func(t *testing.T, s *System, _ *bool) (obj.AD, obj.AD) {
			return mustDomain(t, s, []isa.Instr{isa.Ret()}), obj.NilAD
		}, false, obj.FaultBounds},
		{"a native domain past its entry table", 7, func(t *testing.T, s *System, entered *bool) (obj.AD, obj.AD) {
			return nativeCallee(t, s, entered), obj.NilAD
		}, false, obj.FaultBounds},
		{"a domain AD without the read right", 0, func(t *testing.T, s *System, _ *bool) (obj.AD, obj.AD) {
			dom := mustDomain(t, s, []isa.Instr{isa.Ret()})
			return dom.Restrict(obj.RightRead), obj.NilAD
		}, false, obj.FaultRights},
		{"a native domain without the read right", 0, func(t *testing.T, s *System, entered *bool) (obj.AD, obj.AD) {
			return nativeCallee(t, s, entered).Restrict(obj.RightRead), obj.NilAD
		}, false, obj.FaultRights},
		{"a heap that holds no second frame", 0, func(t *testing.T, s *System, _ *bool) (obj.AD, obj.AD) {
			heap, f := s.SROs.NewGlobalHeap(callerFootprint(t))
			if f != nil {
				t.Fatal(f)
			}
			return mustDomain(t, s, []isa.Instr{isa.Ret()}), heap
		}, false, obj.FaultStorageClaim},
		{"a dangling AD among the arguments", 0, func(t *testing.T, s *System, entered *bool) (obj.AD, obj.AD) {
			return nativeCallee(t, s, entered), obj.NilAD
		}, true, obj.FaultInvalidAD},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			s := newSystem(t, 1)
			fport := damagePort(t, s, 4)
			entered := false
			dom, heap := row.callee(t, s, &entered)
			arg := obj.NilAD
			if row.dangle {
				arg = damageFiller(t, s)
			}
			p, f := s.Spawn(mustDomain(t, s, []isa.Instr{isa.Call(1, row.entry), isa.Halt()}),
				SpawnSpec{FaultPort: fport, Heap: heap, AArgs: [4]obj.AD{obj.NilAD, dom, arg}})
			if f != nil {
				t.Fatal(f)
			}
			if row.dangle {
				if f := s.SROs.Reclaim(arg.Index); f != nil {
					t.Fatal(f)
				}
			}
			ctx, f := s.Procs.Context(p)
			if f != nil {
				t.Fatal(f)
			}
			live := s.Table.Live()
			run(t, s)
			mustState(t, s, p, process.StateFaulted)
			if code, f := s.Procs.FaultCode(p); f != nil || code != row.code {
				t.Errorf("fault = %v (%v), want %v", code, f, row.code)
			}
			if now, f := s.Procs.Context(p); f != nil || now != ctx {
				t.Errorf("context = %v (%v), want the caller's %v", now, f, ctx)
			}
			if n := s.Table.Live(); n != live {
				t.Errorf("%d live objects, want %d", n, live)
			}
			if entered {
				t.Error("the native body ran")
			}
		})
	}
}

// nativeCallee creates a native domain of one entry whose body sets
// *entered.
func nativeCallee(t *testing.T, s *System, entered *bool) obj.AD {
	t.Helper()
	dom, f := s.Domains.CreateNative(s.Heap, 1, func(*domain.Env, uint32) *obj.Fault {
		*entered = true
		return nil
	})
	if f != nil {
		t.Fatal(f)
	}
	return dom
}

// callerFootprint measures, on a world of its own, the bytes a spawn draws
// from the caller's heap: its process and its first frame.
func callerFootprint(t *testing.T) uint32 {
	t.Helper()
	s := newSystem(t, 1)
	heap, f := s.SROs.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	if _, f := s.Spawn(mustDomain(t, s, []isa.Instr{isa.Halt()}), SpawnSpec{Heap: heap}); f != nil {
		t.Fatal(f)
	}
	_, used, _, f := s.SROs.Usage(heap)
	if f != nil {
		t.Fatal(f)
	}
	return used
}

// TestRefusedSpawnLeavesNoProcess: a spawn refused after its process object
// exists — the heap's claim holds the process but not its first frame, or an
// argument AD dangles — unwinds that process. Each row expects the refusal,
// the table's live-object count unchanged and nothing queued at the
// dispatching port.
func TestRefusedSpawnLeavesNoProcess(t *testing.T) {
	rows := []struct {
		name string
		spec func(t *testing.T, s *System) SpawnSpec
		code obj.FaultCode
	}{
		{"a heap that holds the process but not its first frame", func(t *testing.T, s *System) SpawnSpec {
			heap, f := s.SROs.NewGlobalHeap(processFootprint(t))
			if f != nil {
				t.Fatal(f)
			}
			return SpawnSpec{Heap: heap}
		}, obj.FaultStorageClaim},
		{"a dangling AD among the arguments", func(t *testing.T, s *System) SpawnSpec {
			arg := damageFiller(t, s)
			if f := s.SROs.Reclaim(arg.Index); f != nil {
				t.Fatal(f)
			}
			return SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, arg}}
		}, obj.FaultInvalidAD},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s := newSystem(t, 1)
			dom := mustDomain(t, s, []isa.Instr{isa.Halt()})
			spec := row.spec(t, s)
			live := s.Table.Live()
			if p, f := s.Spawn(dom, spec); f == nil || f.Code != row.code {
				t.Fatalf("spawn = %v, %v; want %v", p, f, row.code)
			}
			if n := s.Table.Live(); n != live {
				t.Errorf("%d live objects, want %d", n, live)
			}
			if n, f := s.Ports.Count(s.Dispatch); f != nil || n != 0 {
				t.Errorf("dispatch port holds %d (%v), want 0", n, f)
			}
			if f := s.damage.Fault(); f != nil {
				t.Errorf("damage %v", f)
			}
		})
	}
}

// processFootprint measures, on a world of its own, the bytes a process
// object draws from its heap.
func processFootprint(t *testing.T) uint32 {
	t.Helper()
	s := newSystem(t, 1)
	heap, f := s.SROs.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	if _, f := s.Procs.Create(heap, process.Spec{}); f != nil {
		t.Fatal(f)
	}
	_, used, _, f := s.SROs.Usage(heap)
	if f != nil {
		t.Fatal(f)
	}
	return used
}

// TestDanglingResultFaultsTheProcess: a return whose a0 names an object the
// callee side destroyed is the returning process's fault (FaultInvalidAD),
// not system damage: Run returns no fault and the process takes it at its
// fault port. A RET faults before it writes or pops anything, so the
// returning frame is current; a native call unwinds its frame first, as for
// its body's own fault, so the caller's is. The ISA has no destroy, so the
// VM row's object is reclaimed while the callee waits at a port.
func TestDanglingResultFaultsTheProcess(t *testing.T) {
	t.Run("a native body reclaims the object its caller passed", func(t *testing.T) {
		s := newSystem(t, 1)
		fport := damagePort(t, s, 4)
		dom, f := s.Domains.CreateNative(s.Heap, 1, func(env *domain.Env, _ uint32) *obj.Fault {
			var cv process.Ctx
			env.Procs.OpenContext(env.Ctx, obj.RightRead, &cv)
			a0 := cv.AReg(0)
			if f := cv.Fault(); f != nil {
				return f
			}
			return s.SROs.Reclaim(a0.Index)
		})
		if f != nil {
			t.Fatal(f)
		}
		p, f := s.Spawn(mustDomain(t, s, []isa.Instr{isa.Call(1, 0), isa.Halt()}),
			SpawnSpec{FaultPort: fport, AArgs: [4]obj.AD{damageFiller(t, s), dom}})
		if f != nil {
			t.Fatal(f)
		}
		ctx, f := s.Procs.Context(p)
		if f != nil {
			t.Fatal(f)
		}
		run(t, s)
		mustFaultIn(t, s, p, ctx)
	})
	t.Run("a VM callee returns an object reclaimed while it waited", func(t *testing.T) {
		s := newSystem(t, 1)
		fport, wait := damagePort(t, s, 4), damagePort(t, s, 4)
		callee := mustDomain(t, s, []isa.Instr{isa.Recv(1, 1), isa.Ret()})
		res := damageFiller(t, s)
		p, f := s.Spawn(mustDomain(t, s, []isa.Instr{isa.Call(2, 0), isa.Halt()}),
			SpawnSpec{FaultPort: fport, AArgs: [4]obj.AD{res, wait, callee}})
		if f != nil {
			t.Fatal(f)
		}
		run(t, s)
		mustState(t, s, p, process.StateBlocked)
		ctx, f := s.Procs.Context(p)
		if f != nil {
			t.Fatal(f)
		}
		if f := s.SROs.Reclaim(res.Index); f != nil {
			t.Fatal(f)
		}
		_, wake, f := s.Ports.Send(wait, damageFiller(t, s), 0, obj.NilAD)
		if f != nil || wake == nil {
			t.Fatalf("send: wake %v, %v", wake, f)
		}
		s.Wake(*wake)
		run(t, s)
		mustFaultIn(t, s, p, ctx)
	})
}

// mustFaultIn checks that p took FaultInvalidAD with ctx its current
// context.
func mustFaultIn(t *testing.T, s *System, p, ctx obj.AD) {
	t.Helper()
	mustState(t, s, p, process.StateFaulted)
	if code, f := s.Procs.FaultCode(p); f != nil || code != obj.FaultInvalidAD {
		t.Errorf("fault = %v (%v), want %v", code, f, obj.FaultInvalidAD)
	}
	if now, f := s.Procs.Context(p); f != nil || now != ctx {
		t.Errorf("context = %v (%v), want %v", now, f, ctx)
	}
}
