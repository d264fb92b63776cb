package gdp

import (
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// CPU is one simulated general data processor. The struct holds the
// on-chip state of the real machine: the bound process, the remaining time
// slice, and the cycle clock. Everything architectural lives in objects.
type CPU struct {
	ID    int
	Obj   obj.AD // the hardware processor object (pinned GC root)
	Clock vtime.Clock

	proc      obj.AD       // bound process (NilAD when idle)
	sliceLeft vtime.Cycles // remaining quantum; 0 means unlimited
	offline   bool         // taken out of service; dispatches nothing

	// xc is the execution cache (xcache.go): pinned windows over the
	// bound process's hot state, validated on every execOne against the
	// table's cache generation. Overwritten by each prime.
	xc execCache

	// Per-CPU stats.
	Dispatches   uint64
	Instructions uint64
	IdleCycles   vtime.Cycles
}

// Online reports whether the processor participates in dispatching.
func (c *CPU) Online() bool { return !c.offline }

// Idle reports whether the processor has no bound process.
func (c *CPU) Idle() bool { return !c.proc.Valid() }

// Current reports the bound process.
func (c *CPU) Current() obj.AD { return c.proc }

// CurrentSlot reports the process recorded in the processor object's
// current-process root slot. The collector scans this slot; the invariant
// auditor compares it against the on-chip binding (Current).
func (c *CPU) CurrentSlot(s *System) (obj.AD, *obj.Fault) {
	return s.Table.LoadAD(c.Obj, cpuSlotCurrent)
}

// bind attaches a ready process, opened by tryDispatch, to the processor:
// the implicit hardware dispatch of §5 ("ready processes are dispatched on
// processors automatically"). A refusal of the process view or of the
// processor object's current slot is system damage, kept in the latch.
func (c *CPU) bind(s *System, pv *process.Proc) {
	c.Clock.Charge(vtime.CostDispatch)
	pv.SetState(process.StateRunning)
	c.proc = pv.AD()
	c.sliceLeft = vtime.Cycles(pv.TimeSlice())
	s.damage.Keep(pv.Fault())
	c.Dispatches++
	s.dispatches++
	pv.Emit(trace.EvDispatch, uint32(c.ID), 0)
	// The processor object names its current process so the collector
	// sees running processes as roots.
	s.damage.Keep(s.Table.StoreADSystem(c.Obj, cpuSlotCurrent, c.proc))
}

// unbind detaches the current process (which has blocked, terminated,
// faulted, been preempted, or been stopped); consumed-cycle accounting
// happens per step in the driver.
func (c *CPU) unbind(s *System) {
	c.proc = obj.NilAD
	c.sliceLeft = 0
	s.damage.Keep(s.Table.StoreADSystem(c.Obj, cpuSlotCurrent, obj.NilAD))
}

// tryDispatch draws the highest-priority ready process from the
// dispatching port. It reports whether a process was bound. An entry whose
// process was stopped while queued is stale (the process manager requeues
// it on start, §6.1): it is skipped, charged as the receive that drew it,
// and the next entry is drawn in the same dispatch. A refused receive or a
// non-process at the dispatch port is system damage: it is latched and
// the processor stays idle.
func (c *CPU) tryDispatch(s *System) bool {
	for {
		msg, blocked, _, f := s.Ports.Receive(s.Dispatch, obj.NilAD)
		if f != nil || blocked { // empty: stay idle
			s.damage.Keep(f)
			return false
		}
		var pv process.Proc
		s.Procs.Open(msg, obj.RightRead, &pv)
		st := pv.State()
		if f := pv.Fault(); f != nil {
			s.damage.Keep(f)
			return false
		}
		if st == process.StateReady {
			c.bind(s, &pv)
			return true
		}
		c.Clock.Charge(vtime.CostReceive)
	}
}
