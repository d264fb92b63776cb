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
