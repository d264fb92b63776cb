// Package audit is the cross-subsystem invariant auditor: a machine-checkable
// statement of what a healthy iMAX kernel looks like, walked on demand.
//
// The paper's iMAX leans on confinement — small protection domains limit
// damage (§7.1) and the level discipline audits fault-rule violations
// (§7.3) — but it could only ever observe violations after they surfaced
// as faults. The auditor instead treats kernel state as data (after
// TabulaROSA's queryable-OS-state argument) and checks the structural
// invariants every subsystem relies on but none can see whole:
//
//   - object table: descriptor/type/generation consistency, ancestral-SRO
//     liveness, swap-state sanity (the resident set is exactly the valid,
//     swapped-in slots; the backing store holds exactly the images swapped-
//     out descriptors name), AD slots decode within the table;
//   - storage resource objects: used ≤ claim, the level ordering of the
//     SRO tree (§5), and byte-exact accounting — an SRO's used counter
//     equals the summed footprint of its live allocations;
//   - ports: the stored message count equals the occupied slots, waiters
//     imply a full (senders) or empty (receivers) queue, wait queues are
//     well-formed carrier chains with matching tails (§4), every live
//     carrier in the system is parked on exactly one wait queue or free
//     pool, and pooled carriers are scrubbed (no process, no message);
//   - the collector: Dijkstra's tricolor invariant — no black object
//     references a white one — and pinned roots are never white (§8.1);
//   - dispatching: processor root slots agree with the on-chip binding,
//     no process is bound to two processors, every running process is
//     bound, and the dispatching port holds only distinct processes (§5);
//   - execution caches: every live per-CPU interpreter cache still agrees
//     with the object table — context identity, window placement, operand
//     resolutions — so a missed generation bump surfaces as a violation
//     instead of silent wrong execution.
//
// Checks never mutate. Each returns a slice of Violations; Check adapts
// the whole suite to a testing.TB-shaped interface so every scenario test
// can end with one call.
package audit

import (
	"fmt"

	"repro/internal/gc"
	"repro/internal/gdp"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/sro"
)

// Violation is one observed breach of a kernel invariant.
type Violation struct {
	Subsystem string // "obj", "sro", "port", "gc", "sched", "xcache"
	Obj       obj.Index
	Msg       string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: object %d: %s", v.Subsystem, v.Obj, v.Msg)
}

// Auditor walks kernel state and validates invariants. Table, SROs, Ports
// and Procs are required; Sys enables the dispatching checks and GC gates
// the tricolor check on the collector's phase (mid-whiten, black-to-white
// edges are legitimate).
type Auditor struct {
	Table *obj.Table
	SROs  *sro.Manager
	Ports *port.Manager
	Procs *process.Manager
	Sys   *gdp.System
	GC    *gc.Collector
}

// New returns an auditor over a running system.
func New(sys *gdp.System) *Auditor {
	return &Auditor{
		Table: sys.Table,
		SROs:  sys.SROs,
		Ports: sys.Ports,
		Procs: sys.Procs,
		Sys:   sys,
	}
}

// WithGC attaches the collector so the tricolor check can respect its
// phase. Returns the auditor for chaining.
func (a *Auditor) WithGC(c *gc.Collector) *Auditor {
	a.GC = c
	return a
}

// CheckAll runs every applicable check and concatenates the violations.
func (a *Auditor) CheckAll() []Violation {
	var out []Violation
	out = append(out, a.CheckObjects()...)
	out = append(out, a.CheckSROs()...)
	out = append(out, a.CheckPorts()...)
	out = append(out, a.CheckTricolor()...)
	out = append(out, a.CheckScheduler()...)
	out = append(out, a.CheckExecCache()...)
	return out
}

// moved reports a FaultSegmentMoved: the object is swapped out, which is
// invisible to the auditor, not corrupt — the checks skip such state.
func moved(f *obj.Fault) bool { return f != nil && f.Code == obj.FaultSegmentMoved }

// capOf manufactures a full-rights capability for a live object, the way
// the collector and the port microcode do: the auditor operates below the
// capability discipline.
func (a *Auditor) capOf(idx obj.Index) obj.AD {
	ad, _ := a.Table.SystemAD(idx)
	return ad
}

// CheckObjects validates the object descriptor table: type and generation
// sanity, ancestral-SRO liveness, swap-state consistency (with the resident
// set, and with the backing store when a swapping manager installed one),
// and that every stored AD decodes to an index inside the table.
func (a *Auditor) CheckObjects() []Violation {
	var out []Violation
	bad := func(idx obj.Index, format string, args ...any) {
		out = append(out, Violation{Subsystem: "obj", Obj: idx, Msg: fmt.Sprintf(format, args...)})
	}
	live, swapped, store := 0, 0, a.Table.Backing()
	for i := 1; i < a.Table.Len(); i++ {
		idx := obj.Index(i)
		d := a.Table.DescriptorAt(idx)
		if in := d != nil && !d.SwappedOut(); a.Table.Resident(idx) != in {
			bad(idx, "resident-set bit is %v, descriptor in memory is %v", !in, in)
		}
		var token uint64 // of the image the store should hold for idx
		if d != nil && d.SwappedOut() {
			token = d.SwapToken()
			swapped++
		}
		if store != nil && store.Token(idx) != token {
			bad(idx, "backing store holds image %d, descriptor names %d", store.Token(idx), token)
		}
		if d == nil {
			continue
		}
		live++
		if !d.Type.IsValid() {
			bad(idx, "descriptor has invalid hardware type %d", uint8(d.Type))
		}
		if d.Gen == 0 {
			bad(idx, "live descriptor with zero generation")
		}
		if d.SRO != obj.NilIndex {
			sd := a.Table.DescriptorAt(d.SRO)
			if sd == nil {
				bad(idx, "ancestral SRO %d is not live", d.SRO)
			} else if sd.Type != obj.TypeSRO {
				bad(idx, "ancestral SRO %d has type %s", d.SRO, sd.Type)
			}
		}
		if d.SwappedOut() {
			if d.SwapToken() == 0 {
				bad(idx, "swapped out with zero backing token")
			}
			if d.Pinned() {
				bad(idx, "pinned object swapped out")
			}
			continue // slots are not resident to scan
		}
		ad := a.capOf(idx)
		for slot := uint32(0); slot < uint32(d.AccessSlots); slot++ {
			sad, f := a.Table.LoadAD(ad, slot)
			if f != nil {
				bad(idx, "access slot %d unreadable: %v", slot, f)
				break
			}
			if sad.Valid() && int(sad.Index) >= a.Table.Len() {
				bad(idx, "slot %d holds AD for index %d beyond the table", slot, sad.Index)
			}
		}
	}
	if live != a.Table.Live() {
		bad(obj.NilIndex, "table counts %d live objects, scan found %d", a.Table.Live(), live)
	}
	if store != nil && store.Images() != swapped {
		bad(obj.NilIndex, "backing store holds %d images, %d descriptors are swapped out", store.Images(), swapped)
	}
	return out
}

// CheckSROs validates storage accounting: used never exceeds a finite
// claim, child SRO levels never sink below their parent's (§5's tree
// ordering), an SRO's used counter equals the summed footprint of its live
// allocations, and every charged object carries its SRO's level (SROs
// themselves take their parent's level and context objects carry the call
// depth, so both are exempt).
func (a *Auditor) CheckSROs() []Violation {
	var out []Violation
	bad := func(idx obj.Index, format string, args ...any) {
		out = append(out, Violation{Subsystem: "sro", Obj: idx, Msg: fmt.Sprintf(format, args...)})
	}
	for i := 1; i < a.Table.Len(); i++ {
		idx := obj.Index(i)
		d := a.Table.DescriptorAt(idx)
		if d == nil {
			continue
		}
		if d.Type == obj.TypeSRO && !d.SwappedOut() {
			sroAD := a.capOf(idx)
			claim, used, _, f := a.SROs.Usage(sroAD)
			if f != nil {
				bad(idx, "usage unreadable: %v", f)
				continue
			}
			if claim != 0 && used > claim {
				bad(idx, "used %d exceeds claim %d", used, claim)
			}
			lvl, f := a.SROs.Level(sroAD)
			if f != nil {
				bad(idx, "level unreadable: %v", f)
				continue
			}
			if parent, f := a.SROs.Parent(sroAD); f == nil && parent.Valid() {
				if plvl, f := a.SROs.Level(parent); f == nil && lvl < plvl {
					bad(idx, "level %d below parent SRO's %d", lvl, plvl)
				}
			}
			var sum uint64
			a.Table.AliveBySRO(idx, func(ci obj.Index) {
				if cd := a.Table.DescriptorAt(ci); cd != nil {
					sum += uint64(cd.DataLen) + uint64(cd.AccessSlots)*obj.ADSlotSize
				}
			})
			if sum != uint64(used) {
				bad(idx, "used counter %d but live allocations sum to %d bytes", used, sum)
			}
		}
		// Level inheritance: objects charged to an SRO carry its level.
		if d.SRO != obj.NilIndex && d.Type != obj.TypeSRO && d.Type != obj.TypeContext {
			sd := a.Table.DescriptorAt(d.SRO)
			if sd != nil && sd.Type == obj.TypeSRO && !sd.SwappedOut() {
				if slvl, f := a.SROs.Level(a.capOf(d.SRO)); f == nil && d.Level != slvl {
					bad(idx, "level %d differs from ancestral SRO's %d", d.Level, slvl)
				}
			}
		}
	}
	return out
}

// CheckPorts validates every port's queueing structure (§4) and the global
// carrier accounting: each live carrier object is parked on exactly one
// wait queue.
func (a *Auditor) CheckPorts() []Violation {
	var out []Violation
	bad := func(idx obj.Index, format string, args ...any) {
		out = append(out, Violation{Subsystem: "port", Obj: idx, Msg: fmt.Sprintf(format, args...)})
	}
	carrierSeen := make(map[obj.Index]int)
	skippedPorts := false // a skipped port leaves its carriers uncounted
	checkWaiter := func(pidx obj.Index, w port.Waiter, sender bool) {
		carrierSeen[w.Carrier]++
		cd := a.Table.DescriptorAt(w.Carrier)
		if cd == nil || cd.Type != obj.TypeCarrier {
			bad(pidx, "wait-queue node %d is not a live carrier", w.Carrier)
		}
		if !w.Process.Valid() {
			bad(pidx, "carrier %d holds no process", w.Carrier)
		} else if _, f := a.Table.RequireType(w.Process, obj.TypeProcess); f != nil {
			bad(pidx, "carrier %d process slot: %v", w.Carrier, f)
		}
		if sender {
			if !w.Msg.Valid() {
				bad(pidx, "sender carrier %d carries no message", w.Carrier)
			} else if _, f := a.Table.Resolve(w.Msg); f != nil {
				bad(pidx, "sender carrier %d message dangles: %v", w.Carrier, f)
			}
		} else if w.Msg.Valid() {
			bad(pidx, "receiver carrier %d carries a message", w.Carrier)
		}
	}
	for i := 1; i < a.Table.Len(); i++ {
		idx := obj.Index(i)
		d := a.Table.DescriptorAt(idx)
		if d == nil || d.Type != obj.TypePort {
			continue
		}
		if d.SwappedOut() {
			skippedPorts = true
			continue
		}
		st, f := a.Ports.Inspect(a.capOf(idx))
		if f != nil {
			if moved(f) { // a swapped-out carrier in a wait queue is fine
				skippedPorts = true
			} else {
				bad(idx, "uninspectable: %v", f)
			}
			continue
		}
		if occ := st.OccupiedSlots(); int(st.Count) != occ {
			bad(idx, "count field %d but %d occupied slots", st.Count, occ)
		}
		for si, s := range st.Slots {
			if !s.Occupied {
				if s.Msg.Valid() {
					bad(idx, "free slot %d still holds a message AD", si)
				}
				continue
			}
			if !s.Msg.Valid() {
				bad(idx, "occupied slot %d holds no message", si)
			} else if _, f := a.Table.Resolve(s.Msg); f != nil {
				bad(idx, "queued message in slot %d dangles: %v", si, f)
			}
		}
		if len(st.Senders) > 0 && st.Count < st.Capacity {
			bad(idx, "%d senders parked but queue not full (%d/%d)",
				len(st.Senders), st.Count, st.Capacity)
		}
		if len(st.Receivers) > 0 && st.Count > 0 {
			bad(idx, "%d receivers parked but %d messages queued",
				len(st.Receivers), st.Count)
		}
		if want := lastCarrier(st.Senders); st.SendTail != want {
			bad(idx, "sender tail slot holds %d, queue ends at %d", st.SendTail, want)
		}
		if want := lastCarrier(st.Receivers); st.RecvTail != want {
			bad(idx, "receiver tail slot holds %d, queue ends at %d", st.RecvTail, want)
		}
		for _, w := range st.Senders {
			checkWaiter(idx, w, true)
		}
		for _, w := range st.Receivers {
			checkWaiter(idx, w, false)
		}
		for _, ci := range st.Free {
			carrierSeen[ci]++
			cd := a.Table.DescriptorAt(ci)
			if cd == nil || cd.Type != obj.TypeCarrier {
				bad(idx, "free-pool node %d is not a live carrier", ci)
				continue
			}
			car := a.capOf(ci)
			if held, f := a.Table.LoadAD(car, port.CarSlotProcess); f != nil {
				bad(idx, "pooled carrier %d unreadable: %v", ci, f)
			} else if held.Valid() {
				bad(idx, "pooled carrier %d still holds process %d", ci, held.Index)
			}
			if msg, f := a.Table.LoadAD(car, port.CarSlotMessage); f == nil && msg.Valid() {
				bad(idx, "pooled carrier %d still holds message %d", ci, msg.Index)
			}
		}
	}
	for i := 1; i < a.Table.Len(); i++ {
		idx := obj.Index(i)
		d := a.Table.DescriptorAt(idx)
		if d == nil || d.Type != obj.TypeCarrier {
			continue
		}
		switch n := carrierSeen[idx]; {
		case n == 0:
			// Only conclusive when every queue was walkable.
			if !skippedPorts {
				bad(idx, "live carrier on no port wait queue or free pool")
			}
		case n > 1:
			bad(idx, "carrier appears on %d wait queues", n)
		}
	}
	return out
}

func lastCarrier(ws []port.Waiter) obj.Index {
	if len(ws) == 0 {
		return obj.NilIndex
	}
	return ws[len(ws)-1].Carrier
}

// CheckTricolor validates the on-the-fly collector's invariants (§8.1): no
// black object references a white one (Dijkstra's strong invariant — the
// gray-shading write barrier maintains it whenever the collector is past
// its whiten/root phases), and pinned roots are never white. During the
// whiten and root phases colours are mid-reset and the check is skipped.
func (a *Auditor) CheckTricolor() []Violation {
	if a.GC != nil {
		if ph := a.GC.Phase(); ph == gc.PhaseWhiten || ph == gc.PhaseRoot {
			return nil
		}
	}
	var out []Violation
	bad := func(idx obj.Index, format string, args ...any) {
		out = append(out, Violation{Subsystem: "gc", Obj: idx, Msg: fmt.Sprintf(format, args...)})
	}
	for i := 1; i < a.Table.Len(); i++ {
		idx := obj.Index(i)
		col, ok := a.Table.ColorOf(idx)
		if !ok {
			continue
		}
		if a.Table.IsPinned(idx) && col == obj.White {
			bad(idx, "pinned root is white")
		}
		if col != obj.Black {
			continue
		}
		f := a.Table.Referents(idx, func(ad obj.AD) {
			if c, live := a.Table.ColorOf(ad.Index); live && c == obj.White {
				bad(idx, "black object references white object %d", ad.Index)
			}
		})
		if f != nil && f.Code != obj.FaultSegmentMoved {
			bad(idx, "unscannable: %v", f)
		}
	}
	return out
}

// CheckScheduler validates dispatching consistency (§5): each processor's
// root slot names its bound process, no process is bound twice, every
// running process is bound exactly once, and the dispatching port holds
// only distinct process objects.
func (a *Auditor) CheckScheduler() []Violation {
	if a.Sys == nil {
		return nil
	}
	var out []Violation
	bad := func(idx obj.Index, format string, args ...any) {
		out = append(out, Violation{Subsystem: "sched", Obj: idx, Msg: fmt.Sprintf(format, args...)})
	}
	bound := make(map[obj.Index]int)
	for _, c := range a.Sys.CPUs {
		cur := c.Current()
		slot, f := c.CurrentSlot(a.Sys)
		if f != nil {
			bad(obj.NilIndex, "processor %d root slot unreadable: %v", c.ID, f)
		} else if cur.Valid() != slot.Valid() || (cur.Valid() && cur.Index != slot.Index) {
			bad(cur.Index, "processor %d root slot (%d) disagrees with binding (%d)",
				c.ID, slot.Index, cur.Index)
		}
		if !cur.Valid() {
			continue
		}
		if _, f := a.Table.RequireType(cur, obj.TypeProcess); f != nil {
			bad(cur.Index, "processor %d bound to a non-process: %v", c.ID, f)
		}
		bound[cur.Index]++
	}
	for idx, n := range bound {
		if n > 1 {
			bad(idx, "process bound to %d processors", n)
		}
	}
	for i := 1; i < a.Table.Len(); i++ {
		idx := obj.Index(i)
		d := a.Table.DescriptorAt(idx)
		if d == nil || d.Type != obj.TypeProcess || d.SwappedOut() {
			continue
		}
		st, f := a.Procs.StateOf(a.capOf(idx))
		if f != nil {
			if !moved(f) { // a swapped-out process is necessarily not running
				bad(idx, "state unreadable: %v", f)
			}
			continue
		}
		if st == process.StateRunning && bound[idx] != 1 {
			bad(idx, "running process bound to %d processors", bound[idx])
		}
	}
	st, f := a.Ports.Inspect(a.Sys.Dispatch)
	if f != nil {
		if !moved(f) {
			bad(a.Sys.Dispatch.Index, "dispatch port uninspectable: %v", f)
		}
		return out
	}
	seen := make(map[obj.Index]bool)
	for si, s := range st.Slots {
		if !s.Occupied {
			continue
		}
		if _, f := a.Table.RequireType(s.Msg, obj.TypeProcess); f != nil {
			bad(a.Sys.Dispatch.Index, "dispatch slot %d holds a non-process: %v", si, f)
			continue
		}
		if seen[s.Msg.Index] {
			bad(s.Msg.Index, "process queued at the dispatch port twice")
		}
		seen[s.Msg.Index] = true
	}
	return out
}

// CheckExecCache validates the interpreter's per-CPU execution caches
// against the object table: every current-generation cache, bound just now
// or not, must pin its process's actual current context, windows that are
// the table's own view of the context's extents, a predecoded table equal
// to a fresh predecode of the domain's program, and operand views that are
// still what their ADs resolve to. A violation here means some aliasing
// operation failed to bump the table's cache generation — the stale-cache
// bug class the generation discipline exists to make impossible.
func (a *Auditor) CheckExecCache() []Violation {
	if a.Sys == nil {
		return nil
	}
	var out []Violation
	for _, rec := range a.Sys.AuditExecCaches() {
		for _, p := range rec.Problems {
			out = append(out, Violation{
				Subsystem: "xcache",
				Obj:       rec.Ctx.Index,
				Msg:       fmt.Sprintf("cpu %d (process %d): %s", rec.CPU, rec.Proc.Index, p),
			})
		}
	}
	return out
}

// TB is the fragment of testing.TB the Check helpers need; keeping it
// local lets non-test tooling (cmd/imax) drive the auditor without
// importing the testing package.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// Check audits the system and reports every violation through t. Call it
// at the end of every scenario.
func Check(t TB, sys *gdp.System) {
	CheckWith(t, New(sys))
}

// CheckWith is Check over a pre-built (e.g. GC-aware) auditor.
func CheckWith(t TB, a *Auditor) {
	t.Helper()
	for _, v := range a.CheckAll() {
		t.Errorf("audit: %s", v)
	}
}
