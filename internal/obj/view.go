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
	if !t.Fill(a, want, v) {
		return t.whyNot(a, want)
	}
	return nil
}

// Fill is View without the diagnosis, for a caller that answers a refusal
// by taking another path (the interpreter's operand memo) and would throw
// the fault away. A refusal leaves v as it was.
func (t *Table) Fill(a AD, want Rights, v *View) bool {
	d := t.present(a, want)
	if d == nil {
		return false
	}
	v.t, v.ad, v.data, v.access = t, a, t.mem.Window(d.Data), t.accessOf(d)
	return true
}

// Current reports whether v is what resolving its AD would produce now:
// the object still present, both windows still the table's own view of its
// extents. The invariant auditor asks this of every view a cache holds.
func (t *Table) Current(v *View) bool {
	var now View
	return t.Fill(v.ad, 0, &now) &&
		sameBytes(now.data, v.data) && sameBytes(now.access.win, v.access.win)
}

func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
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
