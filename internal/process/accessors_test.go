package process

import (
	"testing"

	"repro/internal/obj"
)

// TestAccessorsRoundTrip covers the bookkeeping accessors the processor
// and schedulers use, including their type-check refusals.
func TestAccessorsRoundTrip(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{})

	if f := fx.m.SetStopCount(p, 3); f != nil {
		t.Fatal(f)
	}
	if n, _ := fx.m.StopCount(p); n != 3 {
		t.Fatalf("StopCount = %d", n)
	}

	if f := fx.m.AddCPUCycles(p, 100); f != nil {
		t.Fatal(f)
	}
	if f := fx.m.AddCPUCycles(p, 50); f != nil {
		t.Fatal(f)
	}
	if c, _ := fx.m.CPUCycles(p); c != 150 {
		t.Fatalf("CPUCycles = %d", c)
	}

	if f := fx.m.SetFaultObject(p, obj.Index(42)); f != nil {
		t.Fatal(f)
	}
	if idx, _ := fx.m.FaultObject(p); idx != 42 {
		t.Fatalf("FaultObject = %d", idx)
	}

	other := fx.newProc(t, Spec{})
	if f := fx.m.SetLink(p, SlotParent, other); f != nil {
		t.Fatal(f)
	}
	if got, _ := fx.m.Link(p, SlotParent); got.Index != other.Index {
		t.Fatal("SetLink/Link mismatch")
	}

	ts := fx.m.SetTimeSlice(p, 777)
	if ts != nil {
		t.Fatal(ts)
	}
	if v, _ := fx.m.TimeSlice(p); v != 777 {
		t.Fatalf("TimeSlice = %d", v)
	}

	if id, _ := fx.tab.ReadDWord(p, offPID); id == 0 {
		t.Fatal("PID = 0")
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
		{"SetState", func() *obj.Fault { return fx.m.SetState(notProc, StateReady) }},
		{"Priority", func() *obj.Fault { _, f := fx.m.Priority(notProc); return f }},
		{"SetPriority", func() *obj.Fault { return fx.m.SetPriority(notProc, 1) }},
		{"TimeSlice", func() *obj.Fault { _, f := fx.m.TimeSlice(notProc); return f }},
		{"SetTimeSlice", func() *obj.Fault { return fx.m.SetTimeSlice(notProc, 1) }},
		{"StopCount", func() *obj.Fault { _, f := fx.m.StopCount(notProc); return f }},
		{"SetStopCount", func() *obj.Fault { return fx.m.SetStopCount(notProc, 1) }},
		{"CPUCycles", func() *obj.Fault { _, f := fx.m.CPUCycles(notProc); return f }},
		{"AddCPUCycles", func() *obj.Fault { return fx.m.AddCPUCycles(notProc, 1) }},
		{"FaultCode", func() *obj.Fault { _, f := fx.m.FaultCode(notProc); return f }},
		{"SetFaultCode", func() *obj.Fault { return fx.m.SetFaultCode(notProc, obj.FaultRights) }},
		{"FaultObject", func() *obj.Fault { _, f := fx.m.FaultObject(notProc); return f }},
		{"SetFaultObject", func() *obj.Fault { return fx.m.SetFaultObject(notProc, 1) }},
		{"Link", func() *obj.Fault { _, f := fx.m.Link(notProc, 0); return f }},
		{"SetLink", func() *obj.Fault { return fx.m.SetLink(notProc, 0, obj.NilAD) }},
		{"PopContext", func() *obj.Fault { _, f := fx.m.PopContext(notProc); return f }},
		{"StateOf", func() *obj.Fault { _, f := fx.m.StateOf(notProc); return f }},
	}
	for _, c := range checks {
		if f := c.f(); !obj.IsFault(f, obj.FaultType) {
			t.Errorf("%s on non-process: %v", c.name, f)
		}
	}
	// Context accessors refuse non-contexts the same way.
	if _, f := fx.m.IP(notProc); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("IP on non-context: %v", f)
	}
	if f := fx.m.SetIP(notProc, 0); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("SetIP on non-context: %v", f)
	}
	if _, f := fx.m.Resume(notProc); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("Resume on non-context: %v", f)
	}
	if f := fx.m.SetResume(notProc, ResumeRecv); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("SetResume on non-context: %v", f)
	}
}

// TestCPUCyclesOverflowSafe checks the accumulator wraps rather than
// corrupting neighbouring fields (it is a plain dword by design).
func TestCPUCyclesOverflowSafe(t *testing.T) {
	fx := setup(t)
	p := fx.newProc(t, Spec{Priority: 5})
	if f := fx.m.AddCPUCycles(p, ^uint32(0)); f != nil {
		t.Fatal(f)
	}
	if f := fx.m.AddCPUCycles(p, 10); f != nil {
		t.Fatal(f)
	}
	if c, _ := fx.m.CPUCycles(p); c != 9 {
		t.Fatalf("wrapped CPUCycles = %d", c)
	}
	// The neighbouring priority field is intact.
	if prio, _ := fx.m.Priority(p); prio != 5 {
		t.Fatalf("priority corrupted: %d", prio)
	}
}
