// Package process implements the 432's process and context objects (§5 of
// the paper): "the hardware defines a process object which contains the
// information for scheduling processes, dispatching them on any one of
// several potentially available processors, and sending them back to
// software when various fault or scheduling conditions arise."
//
// A process object carries scheduling state (priority, time slice, run
// state) in its data part and its execution structure in its access part:
// the current context (activation record), its fault port, its dispatch
// port, and the scheduler notification port iMAX's basic process manager
// listens on. Context objects are the per-call activation records that
// level numbers are defined over ("Each context object (i.e., activation
// record) within a process has a level one greater than that of its
// caller").
package process

import (
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/sro"
	"repro/internal/trace"
)

// RightControl on a process capability permits start/stop and parameter
// changes (interpreted by the basic process manager).
const RightControl = obj.RightT1

// State is a process run state.
type State uint16

const (
	// StateReady: queued at a dispatch port, runnable.
	StateReady State = iota
	// StateRunning: bound to a processor.
	StateRunning
	// StateBlocked: parked at a communication port.
	StateBlocked
	// StateFaulted: delivered to its fault port, awaiting service.
	StateFaulted
	// StateStopped: removed from the dispatch mix by the process
	// manager (§6.1 nested stop/start).
	StateStopped
	// StateTerminated: ran to completion; the object persists until
	// collected.
	StateTerminated
)

var stateNames = [...]string{
	"ready", "running", "blocked", "faulted", "stopped", "terminated",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state(?)"
}

// Process data-part layout.
const (
	offState     = 0  // word
	offPriority  = 2  // word: higher runs first at priority dispatch ports
	offTimeSlice = 4  // dword: cycles per quantum
	offStopCount = 8  // word: basic process manager's nested stop count
	offDepth     = 10 // word: current dynamic call depth (level of top context)
	offPID       = 12 // dword: diagnostic identity
	offFaultCode = 16 // word: last fault code delivered
	offCPU       = 20 // dword: processor cycles consumed (scheduler accounting)
	offFaultObj  = 24 // dword: table index of the object involved in the fault
	procData     = 28
)

// Process access-part slots.
const (
	// SlotContext is the current (top) context; the processor follows it.
	SlotContext = obj.ProcessSlotContext
	// SlotFaultPort receives the process when it faults.
	SlotFaultPort = 1
	// SlotDispatchPort is where the process queues when ready.
	SlotDispatchPort = 2
	// SlotSchedPort is the process manager's notification port (§6.1).
	SlotSchedPort = 3
	// SlotCarry holds the message just received when a blocked receiver
	// is woken; the processor moves it into the destination register on
	// resumption.
	SlotCarry = 4
	// SlotParent is the parent process in the process tree (§6.1).
	SlotParent = 5
	// SlotSRO is the SRO the process allocates from by default.
	SlotSRO = 6
	// SlotChildren heads the chained child list the basic process
	// manager maintains for tree-wide stop/start (§6.1).
	SlotChildren = 7
	procSlots    = 8
)

// Context data-part layout. The offsets are exported for the
// interpreter's execution cache (internal/gdp), which reads the register
// file and IP through a direct window over the context's data part; they
// are part of the simulated hardware's context format, not free to move.
const (
	CtxOffIP     = 0 // dword: next instruction index
	CtxOffResume = 4 // word: resume action after a block (see Resume*)
	CtxOffRegs   = 8 // 8 × dword data registers
	CtxDataBytes = CtxOffRegs + isa.NumDataRegs*4

	ctxOffIP     = CtxOffIP
	ctxOffResume = CtxOffResume
	ctxOffRegs   = CtxOffRegs
	ctxData      = CtxDataBytes
)

// Resume actions recorded when a process blocks mid-instruction.
const (
	// ResumeNone: re-execute from IP normally.
	ResumeNone = 0
	// ResumeRecv: a receive completed while blocked; the carried
	// message must land in the access register named by the low byte.
	ResumeRecv = 1
)

// Context access-part slots.
const (
	// CtxSlotCaller is the dynamic link to the calling context.
	CtxSlotCaller = 0
	// CtxSlotDomain is the domain being executed.
	CtxSlotDomain = 1
	// CtxSlotLocalSRO is the frame's local heap, if one was created.
	CtxSlotLocalSRO = 2
	// CtxSlotA0 starts the access registers a0..a3.
	CtxSlotA0 = 4
	ctxSlots  = 4 + isa.NumAccessRegs
)

// Manager provides process and context operations over an object table.
type Manager struct {
	Table *obj.Table
	SRO   *sro.Manager

	nextPID uint32
}

// NewManager returns a process manager (the mechanism layer; policy lives
// in internal/pm).
func NewManager(t *obj.Table, s *sro.Manager) *Manager {
	return &Manager{Table: t, SRO: s}
}

// Spec describes a new process.
type Spec struct {
	Priority     uint16
	TimeSlice    uint32 // cycles per quantum; 0 means never preempted
	FaultPort    obj.AD
	DispatchPort obj.AD
	SchedPort    obj.AD
	Parent       obj.AD
}

// Create makes a process object allocated from heap. The process has no
// context yet; PushContext installs its first activation before it can be
// dispatched (§5: "Processes themselves are each created from an SRO and
// have their lifetimes constrained just as described for all objects").
func (m *Manager) Create(heap obj.AD, spec Spec) (obj.AD, *obj.Fault) {
	p, f := m.SRO.Create(heap, obj.CreateSpec{
		Type:        obj.TypeProcess,
		DataLen:     procData,
		AccessSlots: procSlots,
	})
	if f != nil {
		return obj.NilAD, f
	}
	m.nextPID++
	var v Proc
	m.Open(p, obj.RightWrite, &v)
	v.SetDWord(offPID, m.nextPID)
	v.SetWord(offPriority, spec.Priority)
	v.SetDWord(offTimeSlice, spec.TimeSlice)
	v.SetWord(offState, uint16(StateReady))
	for _, link := range []struct {
		slot uint32
		ad   obj.AD
	}{
		{SlotFaultPort, spec.FaultPort},
		{SlotDispatchPort, spec.DispatchPort},
		{SlotSchedPort, spec.SchedPort},
		{SlotParent, spec.Parent},
		{SlotSRO, heap},
	} {
		if link.ad.Valid() {
			v.StoreADSystem(link.slot, link.ad)
		}
	}
	return p, v.Fault()
}

// Proc is a process object opened for one operation of the processor or a
// process manager: an obj.View, which resolves the process once and latches
// the operation's first fault, with the fields of the process layout. The
// links are its access slots: LoadAD and StoreADSystem with the Slot names.
type Proc struct{ obj.View }

// Open resolves process p into v for one operation. want is the right of
// the operation's first access, with RightControl if the operation demands
// it. v is filled in place, like the view in it: returned by value, the
// copies showed as 5 % of a sharded run.
func (m *Manager) Open(p obj.AD, want obj.Rights, v *Proc) {
	m.Table.View(p, obj.TypeProcess, want, &v.View)
}

// State reads the run state.
func (v *Proc) State() State { return State(v.Word(offState)) }

// SetState records a run-state transition. The processor and the process
// managers are the only callers.
func (v *Proc) SetState(s State) {
	v.SetWord(offState, uint16(s))
	v.Emit(trace.EvProcState, uint32(s), 0)
}

// Priority reads the dispatching priority, and SetPriority changes it. The
// setters test the control right (§6.1) on the view's AD themselves: without
// it Span latches FaultRights, and the write on the faulted view is dropped.
func (v *Proc) Priority() uint16 { return v.Word(offPriority) }
func (v *Proc) SetPriority(prio uint16) {
	v.Span(RightControl, offPriority, 2)
	v.SetWord(offPriority, prio)
}

// TimeSlice reads the quantum in cycles (0 = run to completion), and
// SetTimeSlice changes it, under the control right as SetPriority does.
func (v *Proc) TimeSlice() uint32 { return v.DWord(offTimeSlice) }
func (v *Proc) SetTimeSlice(cycles uint32) {
	v.Span(RightControl, offTimeSlice, 4)
	v.SetDWord(offTimeSlice, cycles)
}

// StopCount reads the nested stop count the basic process manager keeps
// (§6.1), and SetStopCount records it.
func (v *Proc) StopCount() uint16     { return v.Word(offStopCount) }
func (v *Proc) SetStopCount(n uint16) { v.SetWord(offStopCount, n) }

// CPUCycles reads the processor cycles the process has consumed, the
// accounting a scheduler policy uses to apportion the processing resource
// fairly (§6.1); AddCPUCycles charges n more, when the process leaves a
// processor. The accumulator is a plain dword and wraps.
func (v *Proc) CPUCycles() uint32     { return v.DWord(offCPU) }
func (v *Proc) AddCPUCycles(n uint32) { v.SetDWord(offCPU, v.DWord(offCPU)+n) }

// FaultCode reads the last fault delivered to the process and FaultObject
// the table index of the object involved — how a segment-fault handler
// learns what to swap in. SetFault records both.
func (v *Proc) FaultCode() obj.FaultCode { return obj.FaultCode(v.Word(offFaultCode)) }
func (v *Proc) FaultObject() obj.Index   { return obj.Index(v.DWord(offFaultObj)) }
func (v *Proc) SetFault(c obj.FaultCode, idx obj.Index) {
	v.SetWord(offFaultCode, uint16(c))
	v.SetDWord(offFaultObj, uint32(idx))
}

// The single-shot forms: one field of a process the caller holds only an AD
// for. Each is an operation of one access.

// StateOf reports the process's run state.
func (m *Manager) StateOf(p obj.AD) (State, *obj.Fault) {
	var v Proc
	m.Open(p, obj.RightRead, &v)
	return v.State(), v.Fault()
}

// SetState records a run-state transition.
func (m *Manager) SetState(p obj.AD, s State) *obj.Fault {
	var v Proc
	m.Open(p, obj.RightWrite, &v)
	v.SetState(s)
	return v.Fault()
}

// CPUCycles reports the processor cycles the process has consumed.
func (m *Manager) CPUCycles(p obj.AD) (uint32, *obj.Fault) {
	var v Proc
	m.Open(p, obj.RightRead, &v)
	return v.CPUCycles(), v.Fault()
}

// FaultCode reports the last fault delivered to the process.
func (m *Manager) FaultCode(p obj.AD) (obj.FaultCode, *obj.Fault) {
	var v Proc
	m.Open(p, obj.RightRead, &v)
	return v.FaultCode(), v.Fault()
}

// Link reads one of the process's access slots (fault port, dispatch
// port, parent, ...).
func (m *Manager) Link(p obj.AD, slot uint32) (obj.AD, *obj.Fault) {
	var v Proc
	m.Open(p, obj.RightRead, &v)
	return v.LoadAD(slot), v.Fault()
}

// SetLink writes one of the process's access slots.
func (m *Manager) SetLink(p obj.AD, slot uint32, ad obj.AD) *obj.Fault {
	var v Proc
	m.Open(p, obj.RightWrite, &v)
	v.StoreADSystem(slot, ad)
	return v.Fault()
}

// Context reports the process's current context.
func (m *Manager) Context(p obj.AD) (obj.AD, *obj.Fault) {
	return m.Link(p, SlotContext)
}

// PushContext creates a new context for executing domain and makes it the
// process's current context, and leaves it open for writing in cv, so the
// caller writes its IP and arguments without a second resolve; on a refusal
// cv is not to be used. The new context's level is one greater than the
// caller's (§5), which is what makes local heaps created in a frame
// unstorable above it. Allocation comes from the process's default SRO.
func (m *Manager) PushContext(p obj.AD, domain obj.AD, cv *Ctx) *obj.Fault {
	var pv Proc
	m.Open(p, obj.RightRead, &pv)
	caller, depth, heap := pv.LoadAD(SlotContext), pv.Word(offDepth), pv.LoadAD(SlotSRO)
	if f := pv.Fault(); f != nil {
		return f
	}
	ctx, f := m.SRO.Create(heap, obj.CreateSpec{
		Type:        obj.TypeContext,
		DataLen:     ctxData,
		AccessSlots: ctxSlots,
	})
	if f != nil {
		return f
	}
	// Contexts are stack-like: their level is the call depth. The SRO
	// assigns its own level at Create, so record depth directly in the
	// descriptor via the system path: context lifetime is governed by
	// the call stack, not the heap it was carved from.
	m.Table.DescriptorAt(ctx.Index).Level = obj.Level(depth + 1)
	m.OpenContext(ctx, obj.RightWrite, cv)
	if caller.Valid() {
		cv.StoreADSystem(CtxSlotCaller, caller)
	}
	if domain.Valid() {
		cv.StoreADSystem(CtxSlotDomain, domain)
	}
	pv.Latch(cv.Fault())
	pv.StoreADSystem(SlotContext, ctx)
	pv.SetWord(offDepth, depth+1)
	return pv.Fault()
}

// PopContext unwinds the current context: its local heap (if any) is
// destroyed in bulk — the §5 optimisation local heaps exist for — the
// caller becomes current, and the popped context is reclaimed. It reports
// the caller context (NilAD when the outermost context returns).
func (m *Manager) PopContext(p obj.AD) (obj.AD, *obj.Fault) {
	var pv Proc
	m.Open(p, obj.RightRead, &pv)
	ctx := pv.LoadAD(SlotContext)
	if !ctx.Valid() {
		pv.Latch(obj.Faultf(obj.FaultOddity, p, "no context to pop"))
	}
	var cv Ctx
	m.OpenContext(ctx, obj.RightRead, &cv)
	caller, local := cv.LoadAD(CtxSlotCaller), cv.LoadAD(CtxSlotLocalSRO)
	pv.Latch(cv.Fault())
	if local.Valid() {
		_, f := m.SRO.DestroyHeap(local)
		pv.Latch(f)
	}
	pv.StoreADSystem(SlotContext, caller)
	if depth := pv.Word(offDepth); depth > 0 {
		pv.SetWord(offDepth, depth-1)
	}
	if f := pv.Fault(); f != nil {
		return obj.NilAD, f
	}
	return caller, m.SRO.Reclaim(ctx.Index)
}

// Ctx is a context object opened for one operation, as Proc is a process.
// The view's own bounds rule is the register check: a data register past
// the file is past the data part, an access register past a3 past the
// access part.
type Ctx struct{ obj.View }

// OpenContext resolves context ctx into v for one operation.
func (m *Manager) OpenContext(ctx obj.AD, want obj.Rights, v *Ctx) {
	m.Table.View(ctx, obj.TypeContext, want, &v.View)
}

// IP and SetIP read and write the instruction pointer.
func (v *Ctx) IP() uint32      { return v.DWord(ctxOffIP) }
func (v *Ctx) SetIP(ip uint32) { v.SetDWord(ctxOffIP, ip) }

// Reg and SetReg read and write data register r.
func (v *Ctx) Reg(r uint8) uint32       { return v.DWord(ctxOffRegs + uint32(r)*4) }
func (v *Ctx) SetReg(r uint8, x uint32) { v.SetDWord(ctxOffRegs+uint32(r)*4, x) }

// AReg and SetAReg read and write access register r. Access registers are
// processor state, so the store bypasses the level discipline like the
// real register file did; the level rule bites when the capability is
// stored into an object.
func (v *Ctx) AReg(r uint8) obj.AD        { return v.LoadAD(CtxSlotA0 + uint32(r)) }
func (v *Ctx) SetAReg(r uint8, ad obj.AD) { v.StoreADSystem(CtxSlotA0+uint32(r), ad) }

// Resume reads and clears the pending resume action, and SetResume records
// one to run when the process next runs.
func (v *Ctx) Resume() uint16 {
	action := v.Word(ctxOffResume)
	if action != ResumeNone {
		v.SetWord(ctxOffResume, ResumeNone)
	}
	return action
}
func (v *Ctx) SetResume(action uint16) { v.SetWord(ctxOffResume, action) }
