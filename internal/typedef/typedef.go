// Package typedef implements type definition objects (TDOs): the 432's
// mechanism for user-defined object types (§2, §7.2, §8.2 of the paper).
//
// A TDO is itself an object. Creating an instance through a TDO labels the
// new object with the TDO's identity, and no matter what path such an
// object follows — port, storage system, filing — "its hardware-recognized
// type identity is guaranteed to be preserved and checked" (§7.2).
//
// The TDO also carries two pieces of manager policy:
//
//   - rights amplification: a type manager holding the amplify right on its
//     TDO can raise the rights of a capability for one of its own instances
//     (the classic sealed-object pattern: users hold weakened ADs, the
//     manager amplifies on entry to its domain);
//   - the destruction filter of §8.2: a manager may request that instances
//     of its type be delivered to a port, rather than silently reclaimed,
//     when the collector finds them to be garbage.
package typedef

import (
	"repro/internal/obj"
)

// Type rights carried on TDO capabilities.
const (
	// RightCreate permits creating instances of the type.
	RightCreate = obj.RightT1
	// RightAmplify permits amplifying capabilities for instances.
	RightAmplify = obj.RightT2
	// RightRetype permits changing the destruction filter and other
	// manager policy.
	RightRetype = obj.RightT3
)

// TDO data-part layout (offsets in bytes). The name is stored inline so
// that the type's identity survives object filing byte-for-byte.
const (
	offFlags   = 0  // word: bit0 = destruction filter armed
	offNameLen = 2  // word: length of name
	offName    = 4  // bytes: name, up to nameMax
	nameMax    = 60 //
	tdoDataLen = offName + nameMax

	flagFilterArmed = 1 << 0
)

// TDO access-part slots.
const (
	slotFilterPort = 0 // port to which garbage instances are delivered
	tdoSlots       = 1
)

// Manager wraps an object table with the TDO operations. It is stateless;
// all state lives in the objects, so TDOs are first-class, storable and
// filable like everything else.
type Manager struct {
	Table *obj.Table
}

// NewManager returns a TDO manager over the given object table.
func NewManager(t *obj.Table) *Manager { return &Manager{Table: t} }

// Define creates a new type definition object at the given level. The
// returned capability carries all rights; the holder is the type manager
// and hands out restricted copies.
func (m *Manager) Define(name string, level obj.Level, sro obj.Index) (obj.AD, *obj.Fault) {
	if len(name) > nameMax {
		return obj.NilAD, obj.Faultf(obj.FaultBounds, obj.NilAD,
			"type name %q exceeds %d bytes", name, nameMax)
	}
	tdo, f := m.Table.Create(obj.CreateSpec{
		Type:        obj.TypeTDO,
		Level:       level,
		SRO:         sro,
		DataLen:     tdoDataLen,
		AccessSlots: tdoSlots,
	})
	if f != nil {
		return obj.NilAD, f
	}
	var tv obj.View
	m.Table.View(tdo, obj.TypeTDO, obj.RightWrite, &tv)
	tv.SetWord(offNameLen, uint16(len(name)))
	tv.SetBytes(offName, []byte(name))
	return tdo, tv.Fault()
}

// Name reports the type's name.
func (m *Manager) Name(tdo obj.AD) (string, *obj.Fault) {
	var tv obj.View
	m.Table.View(tdo, obj.TypeTDO, obj.RightRead, &tv)
	return string(tv.Bytes(offName, uint32(tv.Word(offNameLen)))), tv.Fault()
}

// CreateInstance creates an object labelled with the TDO's user type. The
// caller must hold the create right on the TDO. The instance capability is
// returned with all rights; the manager typically stores it and hands the
// user a copy with only the rights the abstraction's interface needs.
func (m *Manager) CreateInstance(tdo obj.AD, spec obj.CreateSpec) (obj.AD, *obj.Fault) {
	if _, f := m.Table.RequireType(tdo, obj.TypeTDO); f != nil {
		return obj.NilAD, f
	}
	if !tdo.Rights.Has(RightCreate) {
		return obj.NilAD, obj.Faultf(obj.FaultRights, tdo, "need create right on TDO")
	}
	spec.UserType = tdo.Index
	if spec.Type == obj.TypeInvalid {
		spec.Type = obj.TypeGeneric
	}
	return m.Table.Create(spec)
}

// Is reports whether ad refers to an instance of the TDO's type. This is
// the runtime type check the paper's dynamic-typing extensions rely on.
func (m *Manager) Is(tdo obj.AD, ad obj.AD) (bool, *obj.Fault) {
	if _, f := m.Table.RequireType(tdo, obj.TypeTDO); f != nil {
		return false, f
	}
	ut, f := m.Table.UserTypeOf(ad)
	if f != nil {
		return false, f
	}
	return ut == tdo.Index, nil
}

// Amplify returns a copy of ad carrying the additional rights in grant.
// Only the holder of the amplify right on the instance's own TDO may do
// this: the protection structure guarantees that only the type manager can
// open its own sealed objects (§4: "only this package has the necessary
// access environment").
func (m *Manager) Amplify(tdo obj.AD, ad obj.AD, grant obj.Rights) (obj.AD, *obj.Fault) {
	if _, f := m.Table.RequireType(tdo, obj.TypeTDO); f != nil {
		return obj.NilAD, f
	}
	if !tdo.Rights.Has(RightAmplify) {
		return obj.NilAD, obj.Faultf(obj.FaultRights, tdo, "need amplify right on TDO")
	}
	ut, f := m.Table.UserTypeOf(ad)
	if f != nil {
		return obj.NilAD, f
	}
	if ut != tdo.Index {
		return obj.NilAD, obj.Faultf(obj.FaultType, ad,
			"object is not an instance of this TDO")
	}
	return ad.WithRights(ad.Rights | grant), nil
}

// ArmDestructionFilter registers port as the destination for instances of
// this type that become garbage (§8.2). The collector, on finding a white
// instance of a filtered type, manufactures an AD for it and sends it to
// the port instead of reclaiming it. Requires the retype right.
func (m *Manager) ArmDestructionFilter(tdo obj.AD, port obj.AD) *obj.Fault {
	var tv obj.View
	m.Table.View(tdo, obj.TypeTDO, RightRetype, &tv)
	_, f := m.Table.RequireType(port, obj.TypePort)
	tv.Latch(f)
	tv.StoreAD(slotFilterPort, port)
	tv.SetWord(offFlags, tv.Word(offFlags)|flagFilterArmed)
	return tv.Fault()
}

// FilterPort reports the destruction-filter port of the TDO at index tdoIdx
// and whether the filter is armed. The collector calls this below the
// capability discipline (it holds no ADs), so it takes a raw index.
func (m *Manager) FilterPort(tdoIdx obj.Index) (obj.AD, bool) {
	tdo, ok := m.Table.SystemAD(tdoIdx)
	if !ok {
		return obj.NilAD, false
	}
	var tv obj.View
	m.Table.View(tdo, obj.TypeTDO, obj.RightRead, &tv)
	if port := tv.LoadAD(slotFilterPort); port.Valid() && tv.Word(offFlags)&flagFilterArmed != 0 {
		return port, true
	}
	return obj.NilAD, false
}
