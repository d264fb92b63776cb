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
	if f := m.Table.WriteDWord(p, offPID, m.nextPID); f != nil {
		return obj.NilAD, f
	}
	if f := m.Table.WriteWord(p, offPriority, spec.Priority); f != nil {
		return obj.NilAD, f
	}
	if f := m.Table.WriteDWord(p, offTimeSlice, spec.TimeSlice); f != nil {
		return obj.NilAD, f
	}
	if f := m.Table.WriteWord(p, offState, uint16(StateReady)); f != nil {
		return obj.NilAD, f
	}
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
		if !link.ad.Valid() {
			continue
		}
		if f := m.Table.StoreADSystem(p, link.slot, link.ad); f != nil {
			return obj.NilAD, f
		}
	}
	return p, nil
}

// StateOf reports the process's run state.
func (m *Manager) StateOf(p obj.AD) (State, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return 0, f
	}
	s, f := m.Table.ReadWord(p, offState)
	return State(s), f
}

// SetState records a run-state transition. The processor and the process
// manager are the only callers.
func (m *Manager) SetState(p obj.AD, s State) *obj.Fault {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return f
	}
	if f := m.Table.WriteWord(p, offState, uint16(s)); f != nil {
		return f
	}
	if l := m.Table.Tracer(); l != nil {
		l.Emit(trace.EvProcState, uint32(p.Index), uint32(s), 0)
	}
	return nil
}

// Priority reports the process's dispatching priority.
func (m *Manager) Priority(p obj.AD) (uint16, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return 0, f
	}
	return m.Table.ReadWord(p, offPriority)
}

// SetPriority changes the dispatching priority; requires the control
// right (the basic process manager "makes directly available to the user
// the dispatching parameters of the hardware", §6.1).
func (m *Manager) SetPriority(p obj.AD, prio uint16) *obj.Fault {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return f
	}
	if !p.Rights.Has(RightControl) {
		return obj.Faultf(obj.FaultRights, p, "need control right")
	}
	return m.Table.WriteWord(p, offPriority, prio)
}

// TimeSlice reports the quantum in cycles (0 = run to completion).
func (m *Manager) TimeSlice(p obj.AD) (uint32, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return 0, f
	}
	return m.Table.ReadDWord(p, offTimeSlice)
}

// SetTimeSlice changes the quantum; requires the control right.
func (m *Manager) SetTimeSlice(p obj.AD, cycles uint32) *obj.Fault {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return f
	}
	if !p.Rights.Has(RightControl) {
		return obj.Faultf(obj.FaultRights, p, "need control right")
	}
	return m.Table.WriteDWord(p, offTimeSlice, cycles)
}

// StopCount reports the nested stop count maintained for the basic
// process manager (§6.1).
func (m *Manager) StopCount(p obj.AD) (uint16, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return 0, f
	}
	return m.Table.ReadWord(p, offStopCount)
}

// CPUCycles reports the processor cycles the process has consumed, the
// accounting a scheduler policy uses to apportion the processing resource
// fairly (§6.1).
func (m *Manager) CPUCycles(p obj.AD) (uint32, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return 0, f
	}
	return m.Table.ReadDWord(p, offCPU)
}

// AddCPUCycles charges consumed processor time to the process; the
// processor calls this when the process leaves a processor.
func (m *Manager) AddCPUCycles(p obj.AD, n uint32) *obj.Fault {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return f
	}
	v, f := m.Table.ReadDWord(p, offCPU)
	if f != nil {
		return f
	}
	return m.Table.WriteDWord(p, offCPU, v+n)
}

// SetStopCount records the nested stop count.
func (m *Manager) SetStopCount(p obj.AD, n uint16) *obj.Fault {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return f
	}
	return m.Table.WriteWord(p, offStopCount, n)
}

// FaultCode reports the last fault delivered to the process.
func (m *Manager) FaultCode(p obj.AD) (obj.FaultCode, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return 0, f
	}
	c, f := m.Table.ReadWord(p, offFaultCode)
	return obj.FaultCode(c), f
}

// SetFaultCode records a delivered fault.
func (m *Manager) SetFaultCode(p obj.AD, c obj.FaultCode) *obj.Fault {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return f
	}
	return m.Table.WriteWord(p, offFaultCode, uint16(c))
}

// FaultObject reports the table index of the object involved in the last
// delivered fault — how a segment-fault handler learns what to swap in.
func (m *Manager) FaultObject(p obj.AD) (obj.Index, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return obj.NilIndex, f
	}
	v, f := m.Table.ReadDWord(p, offFaultObj)
	return obj.Index(v), f
}

// SetFaultObject records the object involved in a delivered fault.
func (m *Manager) SetFaultObject(p obj.AD, idx obj.Index) *obj.Fault {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return f
	}
	return m.Table.WriteDWord(p, offFaultObj, uint32(idx))
}

// Link reads one of the process's access slots (fault port, dispatch
// port, parent, ...).
func (m *Manager) Link(p obj.AD, slot uint32) (obj.AD, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return obj.NilAD, f
	}
	return m.Table.LoadAD(p, slot)
}

// SetLink writes one of the process's access slots.
func (m *Manager) SetLink(p obj.AD, slot uint32, ad obj.AD) *obj.Fault {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return f
	}
	return m.Table.StoreADSystem(p, slot, ad)
}

// PushContext creates a new context for executing domain and makes it the
// process's current context. The new context's level is one greater than
// the caller's (§5), which is what makes local heaps created in a frame
// unstorable above it. Allocation comes from the process's default SRO.
func (m *Manager) PushContext(p obj.AD, domain obj.AD) (obj.AD, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return obj.NilAD, f
	}
	caller, f := m.Table.LoadAD(p, SlotContext)
	if f != nil {
		return obj.NilAD, f
	}
	depth, f := m.Table.ReadWord(p, offDepth)
	if f != nil {
		return obj.NilAD, f
	}
	heap, f := m.Table.LoadAD(p, SlotSRO)
	if f != nil {
		return obj.NilAD, f
	}
	ctx, f := m.SRO.Create(heap, obj.CreateSpec{
		Type:        obj.TypeContext,
		DataLen:     ctxData,
		AccessSlots: ctxSlots,
	})
	if f != nil {
		return obj.NilAD, f
	}
	// Contexts are stack-like: their level is the call depth. The SRO
	// assigns its own level at Create, so record depth directly in the
	// descriptor via the system path: context lifetime is governed by
	// the call stack, not the heap it was carved from.
	m.Table.DescriptorAt(ctx.Index).Level = obj.Level(depth + 1)
	if caller.Valid() {
		if f := m.Table.StoreADSystem(ctx, CtxSlotCaller, caller); f != nil {
			return obj.NilAD, f
		}
	}
	if domain.Valid() {
		if f := m.Table.StoreADSystem(ctx, CtxSlotDomain, domain); f != nil {
			return obj.NilAD, f
		}
	}
	if f := m.Table.StoreADSystem(p, SlotContext, ctx); f != nil {
		return obj.NilAD, f
	}
	if f := m.Table.WriteWord(p, offDepth, depth+1); f != nil {
		return obj.NilAD, f
	}
	return ctx, nil
}

// PopContext unwinds the current context: its local heap (if any) is
// destroyed in bulk — the §5 optimisation local heaps exist for — the
// caller becomes current, and the popped context is reclaimed. It reports
// the caller context (NilAD when the outermost context returns).
func (m *Manager) PopContext(p obj.AD) (obj.AD, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypeProcess); f != nil {
		return obj.NilAD, f
	}
	ctx, f := m.Table.LoadAD(p, SlotContext)
	if f != nil {
		return obj.NilAD, f
	}
	if !ctx.Valid() {
		return obj.NilAD, obj.Faultf(obj.FaultOddity, p, "no context to pop")
	}
	caller, f := m.Table.LoadAD(ctx, CtxSlotCaller)
	if f != nil {
		return obj.NilAD, f
	}
	local, f := m.Table.LoadAD(ctx, CtxSlotLocalSRO)
	if f != nil {
		return obj.NilAD, f
	}
	if local.Valid() {
		if _, f := m.SRO.DestroyHeap(local); f != nil {
			return obj.NilAD, f
		}
	}
	if f := m.Table.StoreADSystem(p, SlotContext, caller); f != nil {
		return obj.NilAD, f
	}
	depth, f := m.Table.ReadWord(p, offDepth)
	if f != nil {
		return obj.NilAD, f
	}
	if depth > 0 {
		if f := m.Table.WriteWord(p, offDepth, depth-1); f != nil {
			return obj.NilAD, f
		}
	}
	if f := m.SRO.Reclaim(ctx.Index); f != nil {
		return obj.NilAD, f
	}
	return caller, nil
}

// Context reports the process's current context.
func (m *Manager) Context(p obj.AD) (obj.AD, *obj.Fault) {
	return m.Link(p, SlotContext)
}

// IP reads the context's instruction pointer.
func (m *Manager) IP(ctx obj.AD) (uint32, *obj.Fault) {
	if _, f := m.Table.RequireType(ctx, obj.TypeContext); f != nil {
		return 0, f
	}
	return m.Table.ReadDWord(ctx, ctxOffIP)
}

// SetIP writes the context's instruction pointer.
func (m *Manager) SetIP(ctx obj.AD, ip uint32) *obj.Fault {
	if _, f := m.Table.RequireType(ctx, obj.TypeContext); f != nil {
		return f
	}
	return m.Table.WriteDWord(ctx, ctxOffIP, ip)
}

// Reg reads data register r of the context.
func (m *Manager) Reg(ctx obj.AD, r uint8) (uint32, *obj.Fault) {
	if r >= isa.NumDataRegs {
		return 0, obj.Faultf(obj.FaultBounds, ctx, "data register %d", r)
	}
	return m.Table.ReadDWord(ctx, ctxOffRegs+uint32(r)*4)
}

// SetReg writes data register r of the context.
func (m *Manager) SetReg(ctx obj.AD, r uint8, v uint32) *obj.Fault {
	if r >= isa.NumDataRegs {
		return obj.Faultf(obj.FaultBounds, ctx, "data register %d", r)
	}
	return m.Table.WriteDWord(ctx, ctxOffRegs+uint32(r)*4, v)
}

// AReg reads access register r of the context.
func (m *Manager) AReg(ctx obj.AD, r uint8) (obj.AD, *obj.Fault) {
	if r >= isa.NumAccessRegs {
		return obj.NilAD, obj.Faultf(obj.FaultBounds, ctx, "access register %d", r)
	}
	return m.Table.LoadAD(ctx, CtxSlotA0+uint32(r))
}

// SetAReg writes access register r of the context. Access registers are
// processor state, so the store bypasses the level discipline like the
// real register file did; the level rule bites when the capability is
// stored into an object.
func (m *Manager) SetAReg(ctx obj.AD, r uint8, ad obj.AD) *obj.Fault {
	if r >= isa.NumAccessRegs {
		return obj.Faultf(obj.FaultBounds, ctx, "access register %d", r)
	}
	return m.Table.StoreADSystem(ctx, CtxSlotA0+uint32(r), ad)
}

// Resume reads and clears the context's pending resume action.
func (m *Manager) Resume(ctx obj.AD) (action uint16, f *obj.Fault) {
	if _, f := m.Table.RequireType(ctx, obj.TypeContext); f != nil {
		return 0, f
	}
	v, f := m.Table.ReadWord(ctx, ctxOffResume)
	if f != nil {
		return 0, f
	}
	if v != ResumeNone {
		if f := m.Table.WriteWord(ctx, ctxOffResume, ResumeNone); f != nil {
			return 0, f
		}
	}
	return v, nil
}

// SetResume records a resume action to run when the process next runs.
func (m *Manager) SetResume(ctx obj.AD, action uint16) *obj.Fault {
	if _, f := m.Table.RequireType(ctx, obj.TypeContext); f != nil {
		return f
	}
	return m.Table.WriteWord(ctx, ctxOffResume, action)
}
