package obj

import "encoding/binary"

// View is an AD resolved once, for a microcoded operation that touches the
// same object many times (a port operation reads and writes its port some
// twenty times): windows over the object's two parts and the descriptor
// fields an AD store consults. Every accessor still tests its own right (a
// mask) and its bounds (a length compare); only the walk from AD to segment
// is not repeated. A View holds no *Descriptor, so objects may be created
// under it; it is dead once its object is destroyed, swapped out or moved,
// which nothing inside a single port instruction does.
type View struct {
	t      *Table
	ad     AD
	data   []byte
	access accessPart
}

// View resolves a into v under the access rule. want is the right of the
// operation's first access, so faults come in the order the single-shot
// accessors raise them: invalid, that right, presence; later accesses then
// fault on their own rights. v is filled in place: a View is a hundred
// bytes, and returning one costs a port operation three copies of it.
func (t *Table) View(a AD, want Rights, v *View) *Fault {
	d := t.present(a, want)
	if d == nil {
		return t.whyNot(a, want)
	}
	v.t, v.ad, v.data, v.access = t, a, t.mem.Window(d.Data), t.accessOf(d)
	return nil
}

// AD returns the capability the view was resolved from.
func (v *View) AD() AD { return v.ad }

// Word is Table.ReadWord on the viewed object.
func (v *View) Word(off uint32) (uint16, *Fault) {
	if b, ok := span(v.data, off, 2); ok && v.ad.Rights.Has(RightRead) {
		return binary.LittleEndian.Uint16(b), nil
	}
	return 0, v.t.refuse(v.ad, RightRead, off, 2)
}

// SetWord is Table.WriteWord on the viewed object.
func (v *View) SetWord(off uint32, x uint16) *Fault {
	if b, ok := span(v.data, off, 2); ok && v.ad.Rights.Has(RightWrite) {
		binary.LittleEndian.PutUint16(b, x)
		return nil
	}
	return v.t.refuse(v.ad, RightWrite, off, 2)
}

// DWord is Table.ReadDWord on the viewed object.
func (v *View) DWord(off uint32) (uint32, *Fault) {
	if b, ok := span(v.data, off, 4); ok && v.ad.Rights.Has(RightRead) {
		return binary.LittleEndian.Uint32(b), nil
	}
	return 0, v.t.refuse(v.ad, RightRead, off, 4)
}

// SetDWord is Table.WriteDWord on the viewed object.
func (v *View) SetDWord(off uint32, x uint32) *Fault {
	if b, ok := span(v.data, off, 4); ok && v.ad.Rights.Has(RightWrite) {
		binary.LittleEndian.PutUint32(b, x)
		return nil
	}
	return v.t.refuse(v.ad, RightWrite, off, 4)
}

// LoadAD is Table.LoadAD on the viewed object.
func (v *View) LoadAD(slot uint32) (AD, *Fault) {
	if b, ok := v.access.slot(slot); ok && v.ad.Rights.Has(RightRead) {
		return DecodeAD(binary.LittleEndian.Uint64(b)), nil
	}
	return NilAD, v.t.refuseSlot(v.ad, RightRead, slot)
}

// StoreAD is Table.StoreAD into the viewed object.
func (v *View) StoreAD(slot uint32, src AD) *Fault { return v.storeAD(slot, src, true) }

// StoreADSystem is Table.StoreADSystem into the viewed object.
func (v *View) StoreADSystem(slot uint32, src AD) *Fault { return v.storeAD(slot, src, false) }

func (v *View) storeAD(slot uint32, src AD, user bool) *Fault {
	if !v.ad.Rights.Has(RightWrite) {
		return v.t.whyNot(v.ad, RightWrite)
	}
	return v.t.moveAD(v.ad, &v.access, slot, src, user)
}
