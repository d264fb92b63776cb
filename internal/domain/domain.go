// Package domain implements the 432's domain objects: small protection
// domains corresponding to the Ada package construct (§2 of the paper) —
// "a structure for grouping and restricting accesses to the implementation
// of a module. The 432 subprogram call instruction performs the dynamic
// transition between domains."
//
// A domain bundles a code object with an entry-point table and up to a few
// private objects only reachable through the domain. Crucially for the
// paper's §4 argument, a domain's body may be either VM code or a native
// Go handler, and the caller cannot tell which: "users can be unaware of
// which operations have been implemented in hardware and which have been
// left to software." Native domains are how iMAX's own packages (process
// manager, memory manager, I/O) appear in the object world, and they model
// the paper's "packages as types" extension — one specification, many
// coexisting implementations, dynamically created instances.
package domain

import (
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/sro"
	"repro/internal/vtime"
)

// RightCall on a domain capability permits invoking its entry points.
const RightCall = obj.RightT1

// MaxEntries bounds a domain's entry-point table.
const MaxEntries = 64

// Domain data-part layout.
const (
	offFlags      = 0 // word: bit0 = native
	offEntryCount = 2 // word
	offEntries    = 4 // entryCount × dword instruction indexes
	domainData    = offEntries + MaxEntries*4

	flagNative = 1 << 0
)

// Domain access-part slots.
const (
	slotCode = obj.DomainSlotCode // instruction object (VM domains)
	// SlotPrivate0 starts the domain's private objects: the state its
	// package body encapsulates (a type manager's TDO, a driver's
	// device object, ...).
	SlotPrivate0 = 1
	domainSlots  = 1 + 4
)

// Env is the execution environment a native handler receives: the calling
// process, the fresh context of the call (whose registers carry the
// arguments and will carry the results), and the clock to charge for the
// work performed. Handlers run at iMAX's inner levels (§7.3) and therefore
// must not block and must not fault in normal operation: they return
// faults only for caller errors, which are delivered to the caller.
type Env struct {
	Table *obj.Table
	Procs *process.Manager
	Proc  obj.AD // calling process
	Ctx   obj.AD // context of this call: args in r0..r3/a0..a3
	Clock *vtime.Clock
}

// Handler is a native domain body. Entry selects the entry point, matching
// the entry indexes a VM domain would dispatch through.
type Handler func(env *Env, entry uint32) *obj.Fault

// Manager provides domain operations over an object table.
type Manager struct {
	Table *obj.Table
	SRO   *sro.Manager

	// handlers holds the Go body of each native domain object and programs
	// the decoded image of each code object: obj.Side's generation guard
	// keeps a registration from running, and a decode from being fetched,
	// for whatever takes a recycled slot.
	handlers obj.Side[Handler]
	programs obj.Side[[]isa.Instr]
}

// NewManager returns a domain manager.
func NewManager(t *obj.Table, s *sro.Manager) *Manager {
	return &Manager{
		Table:    t,
		SRO:      s,
		handlers: obj.NewSide[Handler](t),
		programs: obj.NewSide[[]isa.Instr](t),
	}
}

// CreateCode stores a program in a new instruction object.
func (m *Manager) CreateCode(heap obj.AD, prog []isa.Instr) (obj.AD, *obj.Fault) {
	img := isa.EncodeProgram(prog)
	if len(img) == 0 {
		return obj.NilAD, obj.Faultf(obj.FaultBounds, obj.NilAD, "empty program")
	}
	code, f := m.SRO.Create(heap, obj.CreateSpec{
		Type:    obj.TypeInstruction,
		DataLen: uint32(len(img)),
	})
	if f != nil {
		return obj.NilAD, f
	}
	return code, m.Table.WriteBytes(code, 0, img)
}

// Program returns the decoded program of an instruction object, cached by
// identity (index and generation), so repeated fetches cost nothing.
func (m *Manager) Program(code obj.AD) ([]isa.Instr, *obj.Fault) {
	d, f := m.Table.RequireType(code, obj.TypeInstruction)
	if f != nil {
		return nil, f
	}
	if prog, ok := m.programs.Get(code.Index); ok {
		return prog, nil
	}
	img, f := m.Table.ReadBytes(code, 0, d.DataLen)
	if f != nil {
		return nil, f
	}
	prog, err := isa.DecodeProgram(img)
	if err != nil {
		return nil, obj.Faultf(obj.FaultOddity, code, "%v", err)
	}
	m.programs.Put(code.Index, prog)
	return prog, nil
}

// Create makes a VM domain over the given code object. entries lists the
// instruction index of each entry point; entry 0 is the default.
func (m *Manager) Create(heap obj.AD, code obj.AD, entries []uint32) (obj.AD, *obj.Fault) {
	if _, f := m.Table.RequireType(code, obj.TypeInstruction); f != nil {
		return obj.NilAD, f
	}
	return m.create(heap, entries, 0, code)
}

// CreateNative makes a domain whose body is the Go handler. Each call to
// CreateNative yields a distinct domain instance — multiple instances of
// one "package" may coexist, each with its own private objects, which is
// exactly the dynamic-package-creation extension of §6.3.
func (m *Manager) CreateNative(heap obj.AD, entryCount int, h Handler) (obj.AD, *obj.Fault) {
	if h == nil {
		return obj.NilAD, obj.Faultf(obj.FaultInvalidAD, obj.NilAD, "nil handler")
	}
	dom, f := m.create(heap, make([]uint32, entryCount), flagNative, obj.NilAD)
	if f != nil {
		return obj.NilAD, f
	}
	m.handlers.Put(dom.Index, h)
	return dom, nil
}

// create makes the domain object: flags, the entry table, and the code
// object of a VM domain (a native one passes NilAD).
func (m *Manager) create(heap obj.AD, entries []uint32, flags uint16, code obj.AD) (obj.AD, *obj.Fault) {
	if len(entries) == 0 || len(entries) > MaxEntries {
		return obj.NilAD, obj.Faultf(obj.FaultBounds, obj.NilAD,
			"%d entry points outside 1..%d", len(entries), MaxEntries)
	}
	dom, f := m.SRO.Create(heap, obj.CreateSpec{
		Type:        obj.TypeDomain,
		DataLen:     domainData,
		AccessSlots: domainSlots,
	})
	if f != nil {
		return obj.NilAD, f
	}
	var dv obj.View
	m.Table.View(dom, obj.TypeDomain, obj.RightWrite, &dv)
	dv.SetWord(offFlags, flags)
	dv.SetWord(offEntryCount, uint16(len(entries)))
	for i, e := range entries {
		dv.SetDWord(offEntries+uint32(i)*4, e)
	}
	if code.Valid() {
		dv.StoreAD(slotCode, code)
	}
	return dom, dv.Fault()
}

// Entry opens the domain once for a call of entry point entry: the domain
// must be readable, and entry inside its table whichever kind of body it
// has. It returns the entry's instruction index, and the Go body of a
// native domain (nil for a VM one).
func (m *Manager) Entry(dom obj.AD, entry uint32) (uint32, Handler, *obj.Fault) {
	var dv obj.View
	m.Table.View(dom, obj.TypeDomain, obj.RightRead, &dv)
	if n := dv.Word(offEntryCount); entry >= uint32(n) {
		dv.Latch(obj.Faultf(obj.FaultBounds, dom, "entry %d of %d", entry, n))
	}
	ip, native := dv.DWord(offEntries+entry*4), dv.Word(offFlags)&flagNative != 0
	if f := dv.Fault(); f != nil || !native {
		return ip, nil, f
	}
	h, ok := m.handlers.Get(dom.Index)
	if !ok {
		return ip, nil, obj.Faultf(obj.FaultOddity, dom, "native domain has no registered body")
	}
	return ip, h, nil
}

// Code reports the domain's instruction object.
func (m *Manager) Code(dom obj.AD) (obj.AD, *obj.Fault) {
	var dv obj.View
	m.Table.View(dom, obj.TypeDomain, obj.RightRead, &dv)
	return dv.LoadAD(slotCode), dv.Fault()
}
