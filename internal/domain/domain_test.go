package domain

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/sro"
)

type fixture struct {
	tab  *obj.Table
	sros *sro.Manager
	m    *Manager
	heap obj.AD
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

func TestCreateCodeAndProgram(t *testing.T) {
	fx := setup(t)
	prog := []isa.Instr{isa.MovI(0, 5), isa.Halt()}
	code, f := fx.m.CreateCode(fx.heap, prog)
	if f != nil {
		t.Fatal(f)
	}
	d, f := fx.tab.RequireType(code, obj.TypeInstruction)
	if f != nil {
		t.Fatal(f)
	}
	img, f := fx.tab.ReadBytes(code, 0, d.DataLen)
	if f != nil {
		t.Fatal(f)
	}
	got, err := isa.DecodeProgram(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != prog[0] || got[1] != prog[1] {
		t.Fatalf("the code object decodes as %v", got)
	}
}

func TestEmptyProgramRejected(t *testing.T) {
	fx := setup(t)
	if _, f := fx.m.CreateCode(fx.heap, nil); !obj.IsFault(f, obj.FaultBounds) {
		t.Fatalf("empty program: %v", f)
	}
}

func TestCreateDomainAndEntries(t *testing.T) {
	fx := setup(t)
	code, _ := fx.m.CreateCode(fx.heap, []isa.Instr{isa.Nop(), isa.Nop(), isa.Halt()})
	dom, f := fx.m.Create(fx.heap, code, []uint32{0, 2})
	if f != nil {
		t.Fatal(f)
	}
	if _, h, _ := fx.m.Entry(dom, 0); h != nil {
		t.Error("VM domain claims native")
	}
	if ip, _, _ := fx.m.Entry(dom, 0); ip != 0 {
		t.Errorf("entry 0 = %d", ip)
	}
	if ip, _, _ := fx.m.Entry(dom, 1); ip != 2 {
		t.Errorf("entry 1 = %d", ip)
	}
	if _, _, f := fx.m.Entry(dom, 2); !obj.IsFault(f, obj.FaultBounds) {
		t.Errorf("entry 2: %v", f)
	}
	gotCode, _ := fx.m.Code(dom)
	if gotCode.Index != code.Index {
		t.Error("Code mismatch")
	}
}

func TestCreateDomainValidation(t *testing.T) {
	fx := setup(t)
	notCode, _ := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
	if _, f := fx.m.Create(fx.heap, notCode, []uint32{0}); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("non-code object: %v", f)
	}
	code, _ := fx.m.CreateCode(fx.heap, []isa.Instr{isa.Halt()})
	if _, f := fx.m.Create(fx.heap, code, nil); !obj.IsFault(f, obj.FaultBounds) {
		t.Errorf("no entries: %v", f)
	}
	if _, f := fx.m.Create(fx.heap, code, make([]uint32, MaxEntries+1)); !obj.IsFault(f, obj.FaultBounds) {
		t.Errorf("too many entries: %v", f)
	}
}

func TestNativeDomain(t *testing.T) {
	fx := setup(t)
	called := uint32(0)
	dom, f := fx.m.CreateNative(fx.heap, 2, func(env *Env, entry uint32) *obj.Fault {
		called = entry + 1
		return nil
	})
	if f != nil {
		t.Fatal(f)
	}
	_, h, f := fx.m.Entry(dom, 1)
	if f != nil {
		t.Fatal(f)
	}
	if h == nil {
		t.Fatal("native domain not flagged")
	}
	// A native domain's entries are bounded by its table, as a VM one's.
	if _, _, f := fx.m.Entry(dom, 2); !obj.IsFault(f, obj.FaultBounds) {
		t.Errorf("entry 2: %v", f)
	}
	if f := h(nil, 1); f != nil {
		t.Fatal(f)
	}
	if called != 2 {
		t.Fatalf("handler not invoked correctly: %d", called)
	}
	if _, f := fx.m.CreateNative(fx.heap, 1, nil); !obj.IsFault(f, obj.FaultInvalidAD) {
		t.Errorf("nil handler: %v", f)
	}
}

func TestHandlerRegistrationGenerationGuard(t *testing.T) {
	// A recycled table slot must not inherit a stale handler.
	fx := setup(t)
	dom, _ := fx.m.CreateNative(fx.heap, 1, func(*Env, uint32) *obj.Fault { return nil })
	if f := fx.sros.Reclaim(dom.Index); f != nil {
		t.Fatal(f)
	}
	// Recreate a raw domain in the same slot, flagged native with an
	// entry, so that Entry reaches the handler lookup.
	other, f := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeDomain, DataLen: domainData, AccessSlots: domainSlots})
	if f != nil {
		t.Fatal(f)
	}
	if other.Index != dom.Index {
		t.Fatalf("the table did not reuse slot %d (got %d); the test is vacuous", dom.Index, other.Index)
	}
	var dv obj.View
	fx.tab.View(other, obj.TypeDomain, obj.RightWrite, &dv)
	dv.SetWord(offFlags, flagNative)
	dv.SetWord(offEntryCount, 1)
	if f := dv.Fault(); f != nil {
		t.Fatal(f)
	}
	if _, _, f := fx.m.Entry(other, 0); !obj.IsFault(f, obj.FaultOddity) {
		t.Fatalf("stale handler served for recycled slot: %v", f)
	}
}
