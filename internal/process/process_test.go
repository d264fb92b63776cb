package process

import (
	"testing"

	"repro/internal/obj"
	"repro/internal/sro"
)

type fixture struct {
	tab  *obj.Table
	sros *sro.Manager
	m    *Manager
	heap obj.AD
}

// open resolves p for reading its fields; a refusal reads as zeros.
func (fx *fixture) open(p obj.AD) *Proc {
	var v Proc
	fx.m.Open(p, obj.RightRead, &v)
	return &v
}

// context opens ctx for one operation, as the processor does for one
// instruction.
func (fx *fixture) context(ctx obj.AD) *Ctx {
	var v Ctx
	fx.m.OpenContext(ctx, obj.RightRead, &v)
	return &v
}

// push pushes a frame executing dom on p and reports the new context.
func (fx *fixture) push(p, dom obj.AD) (obj.AD, *obj.Fault) {
	var cv Ctx
	f := fx.m.PushContext(p, dom, &cv)
	return cv.AD(), f
}

func setup(t *testing.T) *fixture {
	t.Helper()
	tab := obj.NewTable(1 << 20)
	s := sro.NewManager(tab)
	heap, f := s.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	return &fixture{tab: tab, sros: s, m: NewManager(tab, s), heap: heap}
}

func (fx *fixture) newProc(t *testing.T, spec Spec) obj.AD {
	t.Helper()
	p, f := fx.m.Create(fx.heap, spec)
	if f != nil {
		t.Fatal(f)
	}
	return p
}

func TestCreateDefaults(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{Priority: 7, TimeSlice: 1000})
	if st, _ := fx.m.StateOf(p); st != StateReady {
		t.Errorf("initial state = %v", st)
	}
	if prio := fx.open(p).Priority(); prio != 7 {
		t.Errorf("priority = %d", prio)
	}
	if ts := fx.open(p).TimeSlice(); ts != 1000 {
		t.Errorf("time slice = %d", ts)
	}
	if sc := fx.open(p).StopCount(); sc != 0 {
		t.Errorf("stop count = %d", sc)
	}
	if d := fx.open(p).Word(offDepth); d != 0 {
		t.Errorf("depth = %d", d)
	}
	if ctx, _ := fx.m.Context(p); ctx.Valid() {
		t.Error("new process has a context")
	}
}

func TestPIDsDistinct(t *testing.T) {
	fx := setup(t)
	a := fx.newProc(t, Spec{})
	b := fx.newProc(t, Spec{})
	pa, _ := fx.tab.ReadDWord(a, offPID)
	pb, _ := fx.tab.ReadDWord(b, offPID)
	if pa == pb {
		t.Fatalf("PIDs collide: %d", pa)
	}
}

func TestLinksStored(t *testing.T) {
	fx := setup(t)
	fault, _ := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypePort, DataLen: 32, AccessSlots: 8})
	disp, _ := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypePort, DataLen: 32, AccessSlots: 8})
	parent := fx.newProc(t, Spec{})
	p := fx.newProc(t, Spec{FaultPort: fault, DispatchPort: disp, Parent: parent})
	if got, _ := fx.m.Link(p, SlotFaultPort); got.Index != fault.Index {
		t.Error("fault port not linked")
	}
	if got, _ := fx.m.Link(p, SlotDispatchPort); got.Index != disp.Index {
		t.Error("dispatch port not linked")
	}
	if got, _ := fx.m.Link(p, SlotParent); got.Index != parent.Index {
		t.Error("parent not linked")
	}
	if got, _ := fx.m.Link(p, SlotSRO); got.Index != fx.heap.Index {
		t.Error("default SRO not linked")
	}
}

func TestControlRightRequired(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{Priority: 1})
	weak := p.Restrict(RightControl)
	if f := fx.m.SetPriority(weak, 9); !obj.IsFault(f, obj.FaultRights) {
		t.Errorf("SetPriority without control right: %v", f)
	}
	if f := fx.m.SetTimeSlice(weak, 9); !obj.IsFault(f, obj.FaultRights) {
		t.Errorf("SetTimeSlice without control right: %v", f)
	}
	if f := fx.m.SetPriority(p, 9); f != nil {
		t.Errorf("SetPriority with right: %v", f)
	}
	if prio := fx.open(p).Priority(); prio != 9 {
		t.Errorf("priority = %d", prio)
	}
}

func TestPushPopContext(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{})
	dom, _ := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeDomain, DataLen: 16, AccessSlots: 4})

	var cv Ctx
	if f := fx.m.PushContext(p, dom, &cv); f != nil {
		t.Fatal(f)
	}
	// The new frame is left open for writing, holding its domain.
	c1 := cv.AD()
	cv.SetIP(9)
	if got := cv.LoadAD(CtxSlotDomain); cv.Fault() != nil || got.Index != dom.Index {
		t.Fatalf("frame's domain = %v (%v)", got, cv.Fault())
	}
	if ip := fx.context(c1).IP(); ip != 9 {
		t.Fatalf("IP written through the pushed frame = %d", ip)
	}
	if d := fx.open(p).Word(offDepth); d != 1 {
		t.Fatalf("depth = %d", d)
	}
	if lvl, _ := fx.tab.LevelOf(c1); lvl != 1 {
		t.Fatalf("context level = %d, want 1", lvl)
	}
	c2, f := fx.push(p, dom)
	if f != nil {
		t.Fatal(f)
	}
	// §5: each context has a level one greater than its caller's.
	if lvl, _ := fx.tab.LevelOf(c2); lvl != 2 {
		t.Fatalf("nested context level = %d, want 2", lvl)
	}
	if cur, _ := fx.m.Context(p); cur.Index != c2.Index {
		t.Fatal("current context not updated")
	}
	caller, f := fx.m.PopContext(p)
	if f != nil {
		t.Fatal(f)
	}
	if caller.Index != c1.Index {
		t.Fatal("pop did not restore caller")
	}
	if d := fx.open(p).Word(offDepth); d != 1 {
		t.Fatalf("depth after pop = %d", d)
	}
	// The popped context is reclaimed.
	if cv := fx.context(c2); cv.IP() != 0 || !obj.IsFault(cv.Fault(), obj.FaultInvalidAD) {
		t.Fatalf("popped context survived: %v", cv.Fault())
	}
}

func TestPopDestroysLocalHeap(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{})
	ctx, f := fx.push(p, obj.NilAD)
	if f != nil {
		t.Fatal(f)
	}
	// Create a frame-local heap and allocate from it (§5 local heaps).
	local, f := fx.sros.NewLocalHeap(fx.heap, 1, 0)
	if f != nil {
		t.Fatal(f)
	}
	if f := fx.tab.StoreADSystem(ctx, CtxSlotLocalSRO, local); f != nil {
		t.Fatal(f)
	}
	var locals []obj.AD
	for i := 0; i < 5; i++ {
		ad, f := fx.sros.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
		if f != nil {
			t.Fatal(f)
		}
		locals = append(locals, ad)
	}
	if _, f := fx.m.PopContext(p); f != nil {
		t.Fatal(f)
	}
	for _, ad := range locals {
		if _, f := fx.tab.ReadByteAt(ad, 0); !obj.IsFault(f, obj.FaultInvalidAD) {
			t.Fatal("local object survived frame exit")
		}
	}
}

func TestPopEmptyStackFaults(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{})
	if _, f := fx.m.PopContext(p); !obj.IsFault(f, obj.FaultOddity) {
		t.Fatalf("pop with no context: %v", f)
	}
}

func TestRegisters(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{})
	ctx, _ := fx.push(p, obj.NilAD)
	target, _ := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	cv := fx.context(ctx)
	cv.SetReg(3, 0xCAFE)
	cv.SetAReg(2, target)
	if f := cv.Fault(); f != nil {
		t.Fatal(f)
	}
	if v := fx.context(ctx).Reg(3); v != 0xCAFE {
		t.Fatalf("r3 = %#x", v)
	}
	if got := fx.context(ctx).AReg(2); got.Index != target.Index {
		t.Fatal("a2 round trip failed")
	}
	// The register check is the view's bounds rule: a data register past
	// the file is past the data part, an access register past a3 past the
	// access part, and the fault names the context.
	for _, c := range []struct {
		name   string
		access func(cv *Ctx)
	}{
		{"register 8", func(cv *Ctx) { cv.Reg(8) }},
		{"register 200", func(cv *Ctx) { cv.SetReg(200, 1) }},
		{"access register 4", func(cv *Ctx) { cv.AReg(4) }},
		{"access register 255", func(cv *Ctx) { cv.SetAReg(255, target) }},
	} {
		cv := fx.context(ctx)
		c.access(cv)
		if f := cv.Fault(); !obj.IsFault(f, obj.FaultBounds) || f.AD != ctx {
			t.Errorf("%s: %v", c.name, f)
		}
	}
}

func TestIPAndResume(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{})
	ctx, _ := fx.push(p, obj.NilAD)
	cv := fx.context(ctx)
	cv.SetIP(17)
	cv.SetResume(ResumeRecv | 2<<8)
	if f := cv.Fault(); f != nil {
		t.Fatal(f)
	}
	if ip := fx.context(ctx).IP(); ip != 17 {
		t.Fatalf("IP = %d", ip)
	}
	cv = fx.context(ctx)
	if act := cv.Resume(); act != ResumeRecv|2<<8 || cv.Fault() != nil {
		t.Fatalf("resume = %#x, %v", act, cv.Fault())
	}
	// Resume reads clear the action.
	if act := fx.context(ctx).Resume(); act != ResumeNone {
		t.Fatalf("resume not cleared: %#x", act)
	}
}

func TestStateTransitions(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{})
	for _, s := range []State{StateRunning, StateBlocked, StateReady, StateStopped, StateTerminated} {
		if f := fx.m.SetState(p, s); f != nil {
			t.Fatal(f)
		}
		if got, _ := fx.m.StateOf(p); got != s {
			t.Fatalf("state = %v, want %v", got, s)
		}
	}
}

func TestFaultCodeRecorded(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{})
	var v Proc
	fx.m.Open(p, obj.RightWrite, &v)
	if v.SetFault(obj.FaultLevel, obj.NilIndex); v.Fault() != nil {
		t.Fatal(v.Fault())
	}
	if c, _ := fx.m.FaultCode(p); c != obj.FaultLevel {
		t.Fatalf("fault code = %v", c)
	}
}

func TestOpsOnNonProcess(t *testing.T) {
	fx := setup(t)
	notProc, _ := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 32})
	if _, f := fx.m.StateOf(notProc); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("StateOf non-process: %v", f)
	}
	if _, f := fx.push(notProc, obj.NilAD); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("PushContext non-process: %v", f)
	}
	if cv := fx.context(notProc); cv.IP() != 0 || !obj.IsFault(cv.Fault(), obj.FaultType) {
		t.Errorf("IP of non-context: %v", cv.Fault())
	}
}

func TestStateString(t *testing.T) {
	if StateReady.String() != "ready" || State(99).String() != "state(?)" {
		t.Error("State.String broken")
	}
}
