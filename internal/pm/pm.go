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

// NewBasic returns a basic process manager over the system, installed as
// the system's reaper.
func NewBasic(sys *gdp.System) *Basic {
	b := &Basic{Sys: sys}
	sys.SetReaper(b)
	return b
}

// CreateProcess spawns a process under parent (NilAD for a root of a new
// tree), recording it in the parent's child list so tree operations can
// find it. The returned capability carries all rights; hand out copies
// without RightControl to deny scheduling interference.
func (b *Basic) CreateProcess(dom obj.AD, parent obj.AD, spec gdp.SpawnSpec) (obj.AD, *obj.Fault) {
	return b.create(parent, spec, func(spec gdp.SpawnSpec) (obj.AD, *obj.Fault) {
		return b.Sys.Spawn(dom, spec)
	})
}

// CreateNativeProcess is CreateProcess for a Go-bodied process.
func (b *Basic) CreateNativeProcess(body gdp.NativeBody, parent obj.AD, spec gdp.SpawnSpec) (obj.AD, *obj.Fault) {
	return b.create(parent, spec, func(spec gdp.SpawnSpec) (obj.AD, *obj.Fault) {
		return b.Sys.SpawnNative(body, spec)
	})
}

// create finds or makes the child-list slot before it spawns, so a parent
// whose list cannot take another child refuses it with nothing spawned (a
// spawn refused after the list grew leaves the new block empty, for the next
// child). The spec gets the tree link, and the manager's notification port
// unless the caller named another. The slot's block was opened for writing
// and checked, and the process was just made, so the link cannot be refused.
func (b *Basic) create(parent obj.AD, spec gdp.SpawnSpec, spawn func(gdp.SpawnSpec) (obj.AD, *obj.Fault)) (obj.AD, *obj.Fault) {
	var blk obj.View
	slot, f := b.childSlot(parent, &blk)
	if f != nil {
		return obj.NilAD, f
	}
	spec.Parent = parent
	if b.Notify.Valid() && !spec.SchedPort.Valid() {
		spec.SchedPort = b.Notify
	}
	p, f := spawn(spec)
	if f != nil {
		return obj.NilAD, f
	}
	if parent.Valid() {
		blk.StoreADSystem(slot, p)
	}
	return p, nil
}

// childSlot finds the first free slot of parent's chained child list, or
// grows the list by a block when every slot is taken, and leaves the block
// that holds the slot open in blk. Lists live at the parent's level so the
// level rule is respected for the block objects; child ADs are linked via
// the system path (children may be shorter-lived than the list block).
// Reap unlinks a child that terminates, so its slot takes the next child; a
// child destroyed unterminated keeps its slot, and the tree walk skips it.
func (b *Basic) childSlot(parent obj.AD, blk *obj.View) (uint32, *obj.Fault) {
	if !parent.Valid() {
		return 0, nil
	}
	t := b.Sys.Table
	var pv process.Proc
	b.Sys.Procs.Open(parent, obj.RightRead|obj.RightWrite, &pv)
	for cur := pv.LoadAD(process.SlotChildren); cur.Valid(); cur = blk.LoadAD(childSlotNext) {
		t.View(cur, obj.TypeGeneric, obj.RightRead|obj.RightWrite, blk)
		for s := uint32(childSlot0); s < childBlockSlots; s++ {
			if !blk.LoadAD(s).Valid() {
				return s, blk.Fault()
			}
		}
	}
	// Every slot is taken (a block that did not open returned above):
	// allocate a new block from the parent's SRO and link it where the
	// walk ended. Both views were opened for writing and checked before
	// the allocation, so neither store can be refused, and no block is
	// made that the list does not hold.
	heap := pv.LoadAD(process.SlotSRO)
	if f := pv.Fault(); f != nil {
		return 0, f
	}
	nb, f := b.Sys.SROs.Create(heap, obj.CreateSpec{
		Type:        obj.TypeGeneric,
		AccessSlots: childBlockSlots,
	})
	if f != nil {
		return 0, f
	}
	if blk.AD().Valid() {
		blk.StoreADSystem(childSlotNext, nb)
	} else {
		pv.StoreADSystem(process.SlotChildren, nb)
	}
	t.View(nb, obj.TypeGeneric, obj.RightRead|obj.RightWrite, blk)
	return childSlot0, nil
}

// Reap unlinks a process that has terminated from its parent's child list
// (gdp.Reaper): the list no longer keeps it from the collector, a stop or
// start of the tree no longer opens it, and its slot takes the parent's next
// child. A parentless process is in no list. A list that does not open for
// writing keeps the child, which is then what it was before Reap: listed,
// and opened by the walk.
func (b *Basic) Reap(proc obj.AD) {
	parent, f := b.Sys.Procs.Link(proc, process.SlotParent)
	if f != nil || !parent.Valid() {
		return
	}
	t := b.Sys.Table
	var pv process.Proc
	var blk obj.View
	b.Sys.Procs.Open(parent, obj.RightRead, &pv)
	for cur := pv.LoadAD(process.SlotChildren); cur.Valid(); cur = blk.LoadAD(childSlotNext) {
		t.View(cur, obj.TypeGeneric, obj.RightRead|obj.RightWrite, &blk)
		for s := uint32(childSlot0); s < childBlockSlots; s++ {
			if c := blk.LoadAD(s); c.Index == proc.Index && c.Gen == proc.Gen {
				blk.StoreADSystem(s, obj.NilAD)
				return
			}
		}
	}
}

// treeRights are the rights a stop or start needs on every process of the
// tree: the control right (§6.1), and read and write for the stop count.
const treeRights = process.RightControl | obj.RightRead | obj.RightWrite

// subtree opens p and every live descendant, depth-first with each parent
// before its children, and appends the views to tree. A process or child
// block it cannot open refuses the whole operation: stops and starts
// "apply to entire trees" (§6.1), so nothing is changed until every member
// is open. A child destroyed since it was listed is skipped.
func (b *Basic) subtree(p obj.AD, tree []process.Proc) ([]process.Proc, *obj.Fault) {
	t := b.Sys.Table
	tree = append(tree, process.Proc{})
	pv := &tree[len(tree)-1]
	b.Sys.Procs.Open(p, treeRights, pv)
	var blk obj.View
	blk.Latch(pv.Fault())
	for cur := pv.LoadAD(process.SlotChildren); cur.Valid(); cur = blk.LoadAD(childSlotNext) {
		t.View(cur, obj.TypeGeneric, obj.RightRead, &blk)
		for s := uint32(childSlot0); s < childBlockSlots; s++ {
			c := blk.LoadAD(s)
			if !c.Valid() {
				continue
			}
			if _, gone := t.Resolve(c); gone != nil {
				continue
			}
			var f *obj.Fault
			if tree, f = b.subtree(c, tree); f != nil {
				return tree, f
			}
		}
	}
	return tree, blk.Fault()
}

// Stop increments the stop count of p and its whole subtree, removing
// newly-stopped processes from the dispatching mix. Requires the control
// right on p; the nesting means a scheduler can pass stop requests
// through "without being tracked" (§6.1).
func (b *Basic) Stop(p obj.AD) *obj.Fault { return b.apply(p, b.stopOne) }

// Start decrements the stop count of p and its subtree; processes whose
// count returns to zero re-enter the dispatching mix.
func (b *Basic) Start(p obj.AD) *obj.Fault { return b.apply(p, b.startOne) }

// apply opens the whole tree under p, then applies op to each member in
// the subtree's order. A tree it cannot open whole is refused with no
// count changed.
func (b *Basic) apply(p obj.AD, op func(*process.Proc)) *obj.Fault {
	tree, f := b.subtree(p, nil)
	if f != nil {
		return f
	}
	for i := range tree {
		op(&tree[i])
	}
	return nil
}

func (b *Basic) stopOne(pv *process.Proc) {
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
		b.notifyLeave(pv.AD())
	}
}

func (b *Basic) startOne(pv *process.Proc) {
	n := pv.StopCount()
	if n == 0 {
		return // never stopped; starts do not go negative
	}
	pv.SetStopCount(n - 1)
	pv.Emit(trace.EvStart, uint32(n-1), 0)
	// Still stopped, or parked where a wakeup will find it, unless this
	// start balanced the last stop of a stopped process.
	if n == 1 && pv.State() == process.StateStopped {
		pv.SetState(process.StateReady)
		b.notifyEnter(pv.AD())
		b.Sys.MakeReady(pv.AD())
	}
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
// access to the basic process management facility"). It needs the rights
// Rebalance uses.
func (s *FairScheduler) Adopt(p obj.AD) *obj.Fault {
	var pv process.Proc
	s.Basic.Sys.Procs.Open(p, treeRights, &pv)
	pv.SetTimeSlice(s.Quantum)
	if f := pv.Fault(); f != nil {
		return f
	}
	s.clients = append(s.clients, p)
	return nil
}

// Rebalance recomputes client priorities from consumed cycles: the less a
// client has run, the higher it is placed. Run it periodically (the
// scheduler's native-process body does). Each client is opened once; one
// that no longer opens (collected) or has terminated leaves the table.
func (s *FairScheduler) Rebalance() {
	type rec struct {
		pv     process.Proc
		cycles uint32
	}
	live := s.clients[:0]
	var recs []rec
	var min, max uint32
	for _, p := range s.clients {
		var pv process.Proc
		s.Basic.Sys.Procs.Open(p, treeRights, &pv)
		st, c := pv.State(), pv.CPUCycles()
		if pv.Fault() != nil || st == process.StateTerminated {
			continue
		}
		live = append(live, p)
		if len(recs) == 0 || c < min {
			min = c
		}
		if len(recs) == 0 || c > max {
			max = c
		}
		recs = append(recs, rec{pv, c})
	}
	s.clients = live
	if max == min {
		return
	}
	span := max - min
	for i := range recs {
		// Starved clients (near min) get the top level; hogs get 0.
		frac := uint64(recs[i].cycles-min) * uint64(s.Levels-1) / uint64(span)
		recs[i].pv.SetPriority((s.Levels - 1) - uint16(frac))
	}
}

// Body returns a native-process body that rebalances on the interval
// timer, so configuring the fair policy is just "selecting the package":
// spawn this body at a priority above the client levels and adopt the
// clients. period is the rebalance interval in cycles.
func (s *FairScheduler) Body(period vtime.Cycles) gdp.NativeBody {
	return gdp.NativeBodyFunc(func(sys *gdp.System, proc obj.AD) (vtime.Cycles, gdp.BodyStatus, *obj.Fault) {
		s.Rebalance()
		// Sleep on the hardware interval timer until the next tick;
		// charge per client for the pass itself.
		sys.WakeAt(sys.Now()+period, proc)
		return vtime.Cycles(200 + 50*len(s.clients)), gdp.BodyWaiting, nil
	})
}
