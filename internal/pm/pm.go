// Package pm is iMAX's process management layer (§6.1 of the paper),
// built by package selection: the basic process manager "completes the
// model of processes embedded in the hardware" without arbitrating the
// processor resource, and separate scheduler packages layer policy on
// top — the null policy that simply passes hardware dispatching
// parameters through, and a fair scheduler for multi-user loads.
//
// The basic manager maintains nested stop/start counts over process
// trees: "Each process has a count of the number of stops or starts
// outstanding against it ... Since starts and stops apply to entire
// trees, a user wishing to control a computation need not be aware of the
// internal structure of that process." There is deliberately no central
// process table (§7.1): the tree is walkable only from a process the
// caller already holds a capability for, through per-process child
// lists.
package pm

import (
	"repro/internal/gdp"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Child-list blocks: small chained objects hanging off each process.
const (
	childBlockSlots = 8 // slot 0 links to the next block
	childSlotNext   = 0
	childSlot0      = 1
)

// Basic is the basic process manager.
type Basic struct {
	Sys *gdp.System
	// Notify, when valid, receives every process that enters or leaves
	// the dispatching mix because of a stop or start — the §6.1
	// scheduler notification.
	Notify obj.AD
}

// NewBasic returns a basic process manager over the system.
func NewBasic(sys *gdp.System) *Basic { return &Basic{Sys: sys} }

// CreateProcess spawns a process under parent (NilAD for a root of a new
// tree), recording it in the parent's child list so tree operations can
// find it. The returned capability carries all rights; hand out copies
// without RightControl to deny scheduling interference.
func (b *Basic) CreateProcess(dom obj.AD, parent obj.AD, spec gdp.SpawnSpec) (obj.AD, *obj.Fault) {
	p, f := b.Sys.Spawn(dom, b.under(parent, spec))
	return b.adopt(parent, p, f)
}

// CreateNativeProcess is CreateProcess for a Go-bodied process.
func (b *Basic) CreateNativeProcess(body gdp.NativeBody, parent obj.AD, spec gdp.SpawnSpec) (obj.AD, *obj.Fault) {
	p, f := b.Sys.SpawnNative(body, b.under(parent, spec))
	return b.adopt(parent, p, f)
}

// under completes a spawn spec for a child of parent: the tree link, and
// the manager's notification port unless the caller named another.
func (b *Basic) under(parent obj.AD, spec gdp.SpawnSpec) gdp.SpawnSpec {
	spec.Parent = parent
	if b.Notify.Valid() && !spec.SchedPort.Valid() {
		spec.SchedPort = b.Notify
	}
	return spec
}

// adopt records a process just spawned in its parent's child list.
func (b *Basic) adopt(parent, p obj.AD, f *obj.Fault) (obj.AD, *obj.Fault) {
	if f == nil && parent.Valid() {
		f = b.addChild(parent, p)
	}
	if f != nil {
		return obj.NilAD, f
	}
	return p, nil
}

// addChild links child into parent's chained child list, growing it by a
// block when full. Lists live at the parent's level so the level rule is
// respected for the block objects; child ADs are linked via the system
// path (children may be shorter-lived than the list block, and the
// manager unlinks them on destruction).
func (b *Basic) addChild(parent, child obj.AD) *obj.Fault {
	t := b.Sys.Table
	var pv process.Proc
	b.Sys.Procs.Open(parent, obj.RightRead, &pv)
	var last obj.View // the block walked last, where a new one links
	for cur := pv.LoadAD(process.SlotChildren); cur.Valid(); cur = last.LoadAD(childSlotNext) {
		t.View(cur, obj.TypeGeneric, obj.RightRead, &last)
		for s := uint32(childSlot0); s < childBlockSlots; s++ {
			if ad := last.LoadAD(s); !ad.Valid() {
				last.StoreADSystem(s, child)
				return last.Fault()
			}
		}
	}
	// Allocate a new block from the parent's SRO.
	pv.Latch(last.Fault())
	heap := pv.LoadAD(process.SlotSRO)
	if f := pv.Fault(); f != nil {
		return f
	}
	blk, f := b.Sys.SROs.Create(heap, obj.CreateSpec{
		Type:        obj.TypeGeneric,
		AccessSlots: childBlockSlots,
	})
	if f != nil {
		return f
	}
	if f := t.StoreADSystem(blk, childSlot0, child); f != nil {
		return f
	}
	if last.AD().Valid() {
		last.StoreADSystem(childSlotNext, blk)
		return last.Fault()
	}
	pv.StoreADSystem(process.SlotChildren, blk)
	return pv.Fault()
}

// Children calls fn with each live child of p. A block is read whole
// before fn sees any of it: fn may do anything, and a view is held across
// nothing but its own accesses.
func (b *Basic) Children(p obj.AD, fn func(obj.AD) *obj.Fault) *obj.Fault {
	t := b.Sys.Table
	cur, f := b.Sys.Procs.Link(p, process.SlotChildren)
	for f == nil && cur.Valid() {
		var bv obj.View
		t.View(cur, obj.TypeGeneric, obj.RightRead, &bv)
		var slots [childBlockSlots]obj.AD
		for s := range slots {
			slots[s] = bv.LoadAD(uint32(s))
		}
		if f = bv.Fault(); f != nil {
			break
		}
		for _, ad := range slots[childSlot0:] {
			if !ad.Valid() {
				continue
			}
			if _, gone := t.Resolve(ad); gone != nil {
				continue // child since collected
			}
			if f := fn(ad); f != nil {
				return f
			}
		}
		cur = slots[childSlotNext]
	}
	return f
}

// Walk calls fn with p and every live descendant, depth-first.
func (b *Basic) Walk(p obj.AD, fn func(obj.AD) *obj.Fault) *obj.Fault {
	if f := fn(p); f != nil {
		return f
	}
	return b.Children(p, func(c obj.AD) *obj.Fault {
		return b.Walk(c, fn)
	})
}

// Stop increments the stop count of p and its whole subtree, removing
// newly-stopped processes from the dispatching mix. Requires the control
// right on p; the nesting means a scheduler can pass stop requests
// through "without being tracked" (§6.1).
func (b *Basic) Stop(p obj.AD) *obj.Fault {
	if !p.Rights.Has(process.RightControl) {
		return obj.Faultf(obj.FaultRights, p, "need control right")
	}
	return b.Walk(p, func(q obj.AD) *obj.Fault { return b.stopOne(q) })
}

func (b *Basic) stopOne(p obj.AD) *obj.Fault {
	var pv process.Proc
	b.Sys.Procs.Open(p, obj.RightRead, &pv)
	n := pv.StopCount()
	pv.SetStopCount(n + 1)
	pv.Emit(trace.EvStop, uint32(n+1), 0)
	// With stops already outstanding the process is out of the mix. A
	// blocked or faulted one stays where it is: MakeReady parks it on
	// wakeup because the stop count is set. For a ready or running one,
	// flipping the state suffices: the dispatch loop skips non-ready
	// processes it draws, and a running process is parked at its next
	// scheduling event.
	if st := pv.State(); n == 0 && (st == process.StateReady || st == process.StateRunning) {
		pv.SetState(process.StateStopped)
		if pv.Fault() == nil {
			b.notifyLeave(p)
		}
	}
	return pv.Fault()
}

// Start decrements the stop count of p and its subtree; processes whose
// count returns to zero re-enter the dispatching mix.
func (b *Basic) Start(p obj.AD) *obj.Fault {
	if !p.Rights.Has(process.RightControl) {
		return obj.Faultf(obj.FaultRights, p, "need control right")
	}
	return b.Walk(p, func(q obj.AD) *obj.Fault { return b.startOne(q) })
}

func (b *Basic) startOne(p obj.AD) *obj.Fault {
	var pv process.Proc
	b.Sys.Procs.Open(p, obj.RightRead, &pv)
	n := pv.StopCount()
	if n == 0 {
		return pv.Fault() // never stopped; starts do not go negative
	}
	pv.SetStopCount(n - 1)
	pv.Emit(trace.EvStart, uint32(n-1), 0)
	if n == 1 && pv.State() == process.StateStopped {
		pv.SetState(process.StateReady)
		if pv.Fault() == nil {
			b.notifyEnter(p)
			b.Sys.MakeReady(p)
		}
	}
	return pv.Fault() // still stopped, or parked where a wakeup will find it
}

func (b *Basic) notifyLeave(p obj.AD) { b.notify(p, 0) }
func (b *Basic) notifyEnter(p obj.AD) { b.notify(p, 1) }

func (b *Basic) notify(p obj.AD, key uint32) {
	if !b.Notify.Valid() {
		return
	}
	// Best effort: a slow scheduler loses notifications rather than
	// wedging the manager (upward communication never depends on a
	// reply, §7.3). A scheduler parked at the port is handed this one
	// directly and must be returned to the mix.
	if _, wake, f := b.Sys.Ports.Send(b.Notify, p, key, obj.NilAD); f == nil && wake != nil {
		b.Sys.Wake(*wake)
	}
}

// FairScheduler is a user-process manager built on the basic manager: it
// tracks the processes handed to it (a scheduler may keep a table of its
// own clients — §7.1 forbids only system-wide central tables) and
// periodically redistributes priority against consumed processor time, so
// no client can monopolise the machine whatever hardware parameters it
// asked for.
type FairScheduler struct {
	Basic *Basic
	// Quantum is the time slice imposed on every client.
	Quantum uint32
	// Levels is the number of priority levels used (default 8).
	Levels uint16

	clients []obj.AD
}

// NewFairScheduler returns a fair scheduler with the given imposed
// quantum.
func NewFairScheduler(b *Basic, quantum uint32) *FairScheduler {
	return &FairScheduler{Basic: b, Quantum: quantum, Levels: 8}
}

// Adopt places a process under this scheduler's control: its hardware
// parameters now belong to the policy, not the user ("The protection
// structures guarantee that only this second manager would then have
// access to the basic process management facility").
func (s *FairScheduler) Adopt(p obj.AD) *obj.Fault {
	P := s.Basic.Sys.Procs
	if f := P.SetTimeSlice(p, s.Quantum); f != nil {
		return f
	}
	s.clients = append(s.clients, p)
	return nil
}

// Rebalance recomputes client priorities from consumed cycles: the less a
// client has run, the higher it is placed. Run it periodically (the
// scheduler's native-process body does).
func (s *FairScheduler) Rebalance() *obj.Fault {
	P := s.Basic.Sys.Procs
	live := s.clients[:0]
	var min, max uint32
	first := true
	type rec struct {
		p      obj.AD
		cycles uint32
	}
	var recs []rec
	for _, p := range s.clients {
		st, f := P.StateOf(p)
		if f != nil {
			continue // collected or damaged: drop from the table
		}
		if st == process.StateTerminated {
			continue
		}
		live = append(live, p)
		c, f := P.CPUCycles(p)
		if f != nil {
			return f
		}
		recs = append(recs, rec{p, c})
		if first || c < min {
			min = c
		}
		if first || c > max {
			max = c
		}
		first = false
	}
	s.clients = live
	if len(recs) == 0 || max == min {
		return nil
	}
	span := max - min
	for _, r := range recs {
		// Starved clients (near min) get the top level; hogs get 0.
		frac := uint64(r.cycles-min) * uint64(s.Levels-1) / uint64(span)
		prio := (s.Levels - 1) - uint16(frac)
		if f := P.SetPriority(r.p, prio); f != nil {
			return f
		}
	}
	return nil
}

// Body returns a native-process body that rebalances on the interval
// timer, so configuring the fair policy is just "selecting the package":
// spawn this body at a priority above the client levels and adopt the
// clients. period is the rebalance interval in cycles.
func (s *FairScheduler) Body(period vtime.Cycles) gdp.NativeBody {
	return gdp.NativeBodyFunc(func(sys *gdp.System, proc obj.AD) (vtime.Cycles, gdp.BodyStatus, *obj.Fault) {
		if f := s.Rebalance(); f != nil {
			return 200, gdp.BodyWaiting, f
		}
		// Sleep on the hardware interval timer until the next tick;
		// charge per client for the pass itself.
		sys.WakeAt(sys.Now()+period, proc)
		return vtime.Cycles(200 + 50*len(s.clients)), gdp.BodyWaiting, nil
	})
}
