// Package sro implements storage resource objects, the 432's memory
// allocation abstraction (§5 of the paper).
//
// An SRO "describes free areas of memory and provides the information
// necessary to allocate both physical and logical address space". Every
// object is created from some SRO and inherits the SRO's level number;
// iMAX arranges SROs and processes into a tree so that Ada's scoping and
// lifetime rules fall out of the hardware's level checks:
//
//   - a global heap is an SRO creating level-0 objects that live until the
//     collector proves them unreachable;
//   - a local heap is an SRO created at a process's current dynamic depth;
//     references to its objects cannot escape upward (the level rule), so
//     the whole heap can be destroyed in bulk when the depth is exited —
//     "without leaving dangling references".
//
// SROs carry a storage claim: a byte budget drawn down by creation and
// credited by reclamation, which is how iMAX arbitrates memory among
// subsystems without a central table.
package sro

import (
	"repro/internal/obj"
)

// RightAllocate on an SRO capability permits creating objects from it.
const RightAllocate = obj.RightT1

// SRO data-part layout.
const (
	offLevel  = 0  // word: level of objects created from this SRO
	offClaim  = 4  // dword: storage claim in bytes (0 = unlimited)
	offUsed   = 8  // dword: bytes currently drawn
	offAllocs = 12 // dword: cumulative creation count
	sroData   = 16
)

// SRO access-part slots.
const (
	slotParent = 0 // parent SRO (NilAD for the root)
	sroSlots   = 1
)

// Manager provides the SRO operations over an object table. iMAX's memory
// managers (internal/mm) layer policy (swapping or not) over this
// mechanism.
type Manager struct {
	Table *obj.Table
}

// NewManager returns an SRO manager over the given table.
func NewManager(t *obj.Table) *Manager { return &Manager{Table: t} }

// NewGlobalHeap creates a root SRO producing level-0 (immortal until
// collected) objects. claim limits the bytes it may have outstanding;
// 0 means bounded only by physical memory. The SRO object itself is
// level 0 and belongs to no SRO (it is reclaimed only explicitly).
func (m *Manager) NewGlobalHeap(claim uint32) (obj.AD, *obj.Fault) {
	return m.newSRO(nil, obj.LevelGlobal, claim)
}

// NewLocalHeap creates an SRO producing objects at the given level,
// drawing storage accounted to the parent SRO. Destroying the parent
// destroys the local heap and, transitively, everything allocated from it
// (§5: objects "may be destroyed whenever their ancestral SRO is
// destroyed").
func (m *Manager) NewLocalHeap(parent obj.AD, level obj.Level, claim uint32) (obj.AD, *obj.Fault) {
	var pv obj.View
	m.Table.View(parent, obj.TypeSRO, RightAllocate|obj.RightRead, &pv)
	parentLevel := pv.Word(offLevel)
	if f := pv.Fault(); f != nil {
		return obj.NilAD, f
	}
	if level < obj.Level(parentLevel) {
		return obj.NilAD, obj.Faultf(obj.FaultLevel, parent,
			"local heap level %d below parent's %d", level, parentLevel)
	}
	return m.newSRO(&pv, level, claim)
}

// newSRO creates an SRO under the opened parent pv, or a root for nil.
func (m *Manager) newSRO(pv *obj.View, level obj.Level, claim uint32) (obj.AD, *obj.Fault) {
	spec := obj.CreateSpec{
		Type:        obj.TypeSRO,
		DataLen:     sroData,
		AccessSlots: sroSlots,
	}
	if pv != nil {
		// The SRO object itself is allocated from its parent so that
		// bulk destruction of the parent sweeps it up. Its own level
		// is the parent's level (the SRO must be storable where its
		// creator can reach it), while the objects it creates get
		// the (deeper) level recorded in its data part.
		spec.Level, spec.SRO = obj.Level(pv.Word(offLevel)), pv.AD().Index
	}
	sroAD, f := m.Table.Create(spec)
	if f != nil {
		return obj.NilAD, f
	}
	if pv != nil {
		if charge(pv, footprint(spec)); pv.Fault() != nil {
			_ = m.Table.DestroyIndex(sroAD.Index)
			return obj.NilAD, pv.Fault()
		}
	}
	var sv obj.View
	m.Table.View(sroAD, obj.TypeSRO, obj.RightWrite, &sv)
	sv.SetWord(offLevel, uint16(level))
	sv.SetDWord(offClaim, claim)
	if pv != nil {
		sv.StoreAD(slotParent, pv.AD().Restrict(obj.RightsAll))
	}
	return sroAD, sv.Fault()
}

// footprint is the byte cost charged to an SRO for an object.
func footprint(spec obj.CreateSpec) uint32 {
	return spec.DataLen + spec.AccessSlots*obj.ADSlotSize
}

// charge draws n bytes on the claim of the opened SRO, or latches the
// storage-claim fault.
func charge(sv *obj.View, n uint32) {
	claim, used := sv.DWord(offClaim), sv.DWord(offUsed)
	if claim != 0 && used+n > claim {
		sv.Latch(obj.Faultf(obj.FaultStorageClaim, sv.AD(),
			"claim %d bytes, used %d, need %d more", claim, used, n))
	}
	sv.SetDWord(offUsed, used+n)
}

// credit returns n bytes to the claim of the SRO at sroIdx, if it is still
// there: an ancestral SRO already gone has nothing to credit.
func (m *Manager) credit(sroIdx obj.Index, n uint32) {
	ad, ok := m.Table.SystemAD(sroIdx)
	if !ok {
		return
	}
	var sv obj.View
	m.Table.View(ad, obj.TypeSRO, obj.RightRead, &sv)
	used := sv.DWord(offUsed)
	// Never underflow; damaged accounting degrades safely.
	sv.SetDWord(offUsed, used-min(n, used))
}

// Create allocates a new object from the SRO: the create-object
// instruction's software half. The object's level and ancestry come from
// the SRO; the spec's Type, DataLen and AccessSlots are the caller's.
func (m *Manager) Create(sro obj.AD, spec obj.CreateSpec) (obj.AD, *obj.Fault) {
	var sv obj.View
	m.Table.View(sro, obj.TypeSRO, RightAllocate|obj.RightRead, &sv)
	spec.Level, spec.SRO = obj.Level(sv.Word(offLevel)), sro.Index
	charge(&sv, footprint(spec))
	if f := sv.Fault(); f != nil {
		return obj.NilAD, f
	}
	ad, f := m.Table.Create(spec)
	if f != nil {
		sv.SetDWord(offUsed, sv.DWord(offUsed)-footprint(spec))
		return obj.NilAD, f
	}
	sv.SetDWord(offAllocs, sv.DWord(offAllocs)+1)
	return ad, nil
}

// Reclaim destroys the object at idx and credits its footprint back to its
// ancestral SRO. The collector's sweep uses this instead of raw
// DestroyIndex so that storage claims stay truthful.
func (m *Manager) Reclaim(idx obj.Index) *obj.Fault {
	d := m.Table.DescriptorAt(idx)
	if d == nil {
		return obj.Faultf(obj.FaultInvalidAD, obj.AD{Index: idx}, "no such object")
	}
	sroIdx := d.SRO
	size := d.DataLen + d.Access().Len
	if f := m.Table.DestroyIndex(idx); f != nil {
		return f
	}
	if sroIdx != obj.NilIndex {
		m.credit(sroIdx, size)
	}
	return nil
}

// DestroyHeap destroys the SRO and, in bulk, every live object allocated
// from it — including child SROs and, recursively, their allocations. This
// is the fast local-heap reclamation of §5/§8.1: no marking, no reference
// tracing, just lifetime knowledge. It reports how many objects were
// destroyed (excluding the SRO itself).
func (m *Manager) DestroyHeap(sro obj.AD) (int, *obj.Fault) {
	if _, f := m.Table.RequireType(sro, obj.TypeSRO); f != nil {
		return 0, f
	}
	if !sro.Rights.Has(obj.RightDelete) {
		return 0, obj.Faultf(obj.FaultRights, sro, "need delete right on SRO")
	}
	return m.destroyAllocations(sro.Index), m.Reclaim(sro.Index)
}

func (m *Manager) destroyAllocations(sroIdx obj.Index) int {
	var victims []obj.Index
	m.Table.AliveBySRO(sroIdx, func(i obj.Index) { victims = append(victims, i) })
	n := 0
	for _, v := range victims {
		d := m.Table.DescriptorAt(v)
		if d == nil {
			continue // already destroyed via a nested SRO
		}
		if d.Type == obj.TypeSRO {
			n += m.destroyAllocations(v)
		}
		if m.Table.DestroyIndex(v) == nil {
			n++
		}
	}
	return n
}

// Usage reports the SRO's claim, bytes in use, and cumulative allocations.
func (m *Manager) Usage(sro obj.AD) (claim, used, allocs uint32, f *obj.Fault) {
	var sv obj.View
	m.Table.View(sro, obj.TypeSRO, obj.RightRead, &sv)
	return sv.DWord(offClaim), sv.DWord(offUsed), sv.DWord(offAllocs), sv.Fault()
}

// Level reports the level number of objects created from this SRO.
func (m *Manager) Level(sro obj.AD) (obj.Level, *obj.Fault) {
	var sv obj.View
	m.Table.View(sro, obj.TypeSRO, obj.RightRead, &sv)
	return obj.Level(sv.Word(offLevel)), sv.Fault()
}

// Parent reports the SRO's parent capability, or NilAD for a root.
func (m *Manager) Parent(sro obj.AD) (obj.AD, *obj.Fault) {
	var sv obj.View
	m.Table.View(sro, obj.TypeSRO, obj.RightRead, &sv)
	return sv.LoadAD(slotParent), sv.Fault()
}
