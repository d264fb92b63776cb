package process

import (
	"testing"

	"repro/internal/obj"
)

// TestAccessorsRoundTrip covers the bookkeeping fields the processor and
// schedulers use: written through an opened process, read back single-shot.
func TestAccessorsRoundTrip(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{})
	other := fx.newProc(t, Spec{})

	var v Proc
	fx.m.Open(p, obj.RightWrite, &v)
	v.SetStopCount(3)
	v.AddCPUCycles(100)
	v.AddCPUCycles(50)
	v.SetFault(obj.FaultBounds, obj.Index(42))
	v.StoreADSystem(SlotParent, other)
	if f := v.Fault(); f != nil {
		t.Fatal(f)
	}
	if n := fx.open(p).StopCount(); n != 3 {
		t.Fatalf("StopCount = %d", n)
	}
	if c, _ := fx.m.CPUCycles(p); c != 150 {
		t.Fatalf("CPUCycles = %d", c)
	}
	if c, _ := fx.m.FaultCode(p); c != obj.FaultBounds {
		t.Fatalf("FaultCode = %v", c)
	}
	if idx := fx.open(p).FaultObject(); idx != 42 {
		t.Fatalf("FaultObject = %d", idx)
	}
	if got, _ := fx.m.Link(p, SlotParent); got.Index != other.Index {
		t.Fatal("StoreADSystem/Link mismatch")
	}
	if f := fx.m.SetLink(p, SlotParent, obj.NilAD); f != nil {
		t.Fatal(f)
	}
	if got, _ := fx.m.Link(p, SlotParent); got.Valid() {
		t.Fatal("SetLink did not clear the slot")
	}

	fx.m.Open(p, RightControl|obj.RightWrite, &v)
	v.SetTimeSlice(777)
	v.SetPriority(6)
	if f := v.Fault(); f != nil {
		t.Fatal(f)
	}
	if ts := fx.open(p).TimeSlice(); ts != 777 {
		t.Fatalf("TimeSlice = %d", ts)
	}
	if prio := fx.open(p).Priority(); prio != 6 {
		t.Fatalf("Priority = %d", prio)
	}

	if id, _ := fx.tab.ReadDWord(p, offPID); id == 0 {
		t.Fatal("PID = 0")
	}

	// A write through a read-only capability latches, and what follows it
	// writes nothing.
	fx.m.Open(p.Restrict(obj.RightWrite), obj.RightRead, &v)
	if v.StopCount() != 3 {
		t.Fatal("read through a read-only capability")
	}
	v.SetStopCount(9)
	v.SetState(StateStopped)
	if !obj.IsFault(v.Fault(), obj.FaultRights) {
		t.Fatalf("write through a read-only capability: %v", v.Fault())
	}
	if n := fx.open(p).StopCount(); n != 3 {
		t.Fatalf("a refused operation left StopCount = %d", n)
	}
	if st, _ := fx.m.StateOf(p); st != StateReady {
		t.Fatalf("a refused operation left the state %v", st)
	}
}

// TestAccessorsRefuseNonProcess covers every accessor's type check in one
// sweep: all must fault on a generic object.
func TestAccessorsRefuseNonProcess(t *testing.T) {
	fx := setup(t)
	notProc, f := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64, AccessSlots: 8})
	if f != nil {
		t.Fatal(f)
	}
	checks := []struct {
		name string
		f    func() *obj.Fault
	}{
		{"Open", func() *obj.Fault {
			var v Proc
			fx.m.Open(notProc, obj.RightRead, &v)
			v.SetStopCount(v.StopCount() + 1)
			v.AddCPUCycles(1)
			v.SetFault(obj.FaultRights, v.FaultObject())
			v.SetPriority(v.Priority() + 1)
			v.SetTimeSlice(v.TimeSlice() + 1)
			return v.Fault()
		}},
		{"SetState", func() *obj.Fault { return fx.m.SetState(notProc, StateReady) }},
		{"CPUCycles", func() *obj.Fault { _, f := fx.m.CPUCycles(notProc); return f }},
		{"FaultCode", func() *obj.Fault { _, f := fx.m.FaultCode(notProc); return f }},
		{"Link", func() *obj.Fault { _, f := fx.m.Link(notProc, 0); return f }},
		{"SetLink", func() *obj.Fault { return fx.m.SetLink(notProc, 0, obj.NilAD) }},
		{"PushContext", func() *obj.Fault { var cv Ctx; return fx.m.PushContext(notProc, obj.NilAD, &cv) }},
		{"PopContext", func() *obj.Fault { _, f := fx.m.PopContext(notProc); return f }},
		{"StateOf", func() *obj.Fault { _, f := fx.m.StateOf(notProc); return f }},
	}
	for _, c := range checks {
		if f := c.f(); !obj.IsFault(f, obj.FaultType) {
			t.Errorf("%s on non-process: %v", c.name, f)
		}
	}
	if data, f := fx.tab.ReadBytes(notProc, 0, 64); f != nil || string(data) != string(make([]byte, 64)) {
		t.Errorf("a refused operation wrote the object it refused: %x %v", data, f)
	}
	// Context accessors refuse non-contexts the same way.
	cv := fx.context(notProc)
	cv.SetReg(0, cv.Reg(1))
	cv.SetAReg(0, cv.AReg(1))
	cv.SetIP(cv.IP())
	cv.SetResume(cv.Resume())
	if !obj.IsFault(cv.Fault(), obj.FaultType) {
		t.Errorf("OpenContext on non-context: %v", cv.Fault())
	}
	if data, f := fx.tab.ReadBytes(notProc, 0, 64); f != nil || string(data) != string(make([]byte, 64)) {
		t.Errorf("a refused context operation wrote the object it refused: %x %v", data, f)
	}
}

// TestCPUCyclesOverflowSafe checks the accumulator wraps rather than
// corrupting neighbouring fields (it is a plain dword by design).
func TestCPUCyclesOverflowSafe(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{Priority: 5})
	var v Proc
	fx.m.Open(p, obj.RightRead, &v)
	v.AddCPUCycles(^uint32(0))
	v.AddCPUCycles(10)
	if f := v.Fault(); f != nil {
		t.Fatal(f)
	}
	if c, _ := fx.m.CPUCycles(p); c != 9 {
		t.Fatalf("wrapped CPUCycles = %d", c)
	}
	// The neighbouring priority field is intact.
	if prio := fx.open(p).Priority(); prio != 5 {
		t.Fatalf("priority corrupted: %d", prio)
	}
}
