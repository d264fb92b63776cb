package obj

import (
	"encoding/binary"

	"repro/internal/trace"
)

// View is an AD resolved once, for a microcoded operation that touches the
// same object many times (a port operation reads and writes its port some
// twenty times): windows over the object's two parts and the descriptor
// fields an AD store consults. Every accessor, or a Span for a window of
// fields, still tests its right (a mask) and its bounds (a length compare);
// only the walk from AD to segment is not repeated.
//
// A View is also the unit an operation faults as (§7.1; Figure 1's send and
// receive are single instructions). Its accessors return only the value.
// The first refusal — of the fill or of any access — is latched, diagnosed
// by the same refuse, refuseSlot, whyNot and moveAD the single-shot
// accessors use, and the windows are dropped with it: every later access
// finds no byte in bounds, moves nothing, and leaves the latch alone. The
// operation reads Fault once, where it ends or before its next effect that
// is not an access of this view (an allocation, a counter, an access
// through a second view: see Latch).
//
// A View holds no *Descriptor, so objects may be created under it; it is
// dead once its object is destroyed, swapped out or moved, which nothing
// inside a single instruction does to a port or to the running context.
type View struct {
	t      *Table
	ad     AD
	data   []byte
	access accessPart
	f      *Fault
}

// View resolves a into v for an operation on an object of hardware type
// typ. want is the right of the operation's first access (and any type
// right the operation demands), so a refused fill latches what RequireType
// and then that access would have raised: invalid, type, rights, presence;
// later accesses fault on their own rights. v is filled in place: a View
// is a hundred bytes, and returning one costs a port operation three
// copies of it.
func (t *Table) View(a AD, typ Type, want Rights, v *View) {
	if t.Fill(a, want, v) && v.access.typ == typ {
		return
	}
	*v = View{t: t, ad: a}
	if _, v.f = t.RequireType(a, typ); v.f == nil {
		v.f = t.whyNot(a, want)
	}
}

// Fill is View without the type or the diagnosis, for a caller that
// answers a refusal by taking another path (the interpreter's operand memo
// and its execution-cache prime) and would throw the fault away. A refusal
// leaves v as it was.
func (t *Table) Fill(a AD, want Rights, v *View) bool {
	d := t.present(a, want)
	if d == nil {
		return false
	}
	v.t, v.ad, v.data, v.access, v.f = t, a, t.mem.Window(d.Data()), t.accessOf(d), nil
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

// Type returns the hardware type of the viewed object.
func (v *View) Type() Type { return v.access.typ }

// Windows returns the view's windows over the data and access parts, nil
// once it has faulted: the interpreter's register file, pinned by the
// execution cache for as long as Current holds.
func (v *View) Windows() (data, access []byte) { return v.data, v.access.win }

// Fault returns the first refusal of the operation, or nil.
func (v *View) Fault() *Fault { return v.f }

// Latch makes f the operation's fault if it has none yet and f is one: how
// a refusal from outside the view — an allocation, a consistency check, a
// second view of the same operation — stops the accesses through this one.
func (v *View) Latch(f *Fault) {
	if f != nil && v.f == nil {
		v.f, v.data, v.access = f, nil, accessPart{}
	}
}

// Emit logs an event about the viewed object, unless the operation has
// faulted: an event is an effect, and a refused operation has none.
func (v *View) Emit(k trace.Kind, arg uint32, aux uint64) {
	if v.f == nil {
		if l := v.t.tr; l != nil {
			l.Emit(k, uint32(v.ad.Index), arg, aux)
		}
	}
}

// refuse latches the diagnosis of a data-part access the view turned down.
func (v *View) refuse(want Rights, off, n uint32) {
	if v.f == nil {
		v.Latch(v.t.refuse(v.ad, want, off, n))
	}
}

// Span tests the right want and the bounds once for the n bytes at
// displacement off and returns them, for an operation that moves many fields
// of one window itself. A refusal latches the diagnosis a per-field accessor
// at off gives and returns nil, as does every Span after the first fault.
func (v *View) Span(want Rights, off, n uint32) []byte {
	if b, ok := span(v.data, off, n); ok && v.ad.Rights.Has(want) {
		return b
	}
	v.refuse(want, off, n)
	return nil
}

// Word reads the 16-bit ordinal at displacement off in the data part.
func (v *View) Word(off uint32) uint16 {
	if b, ok := span(v.data, off, 2); ok && v.ad.Rights.Has(RightRead) {
		return binary.LittleEndian.Uint16(b)
	}
	v.refuse(RightRead, off, 2)
	return 0
}

// SetWord writes the 16-bit ordinal at displacement off in the data part.
func (v *View) SetWord(off uint32, x uint16) {
	if b, ok := span(v.data, off, 2); ok && v.ad.Rights.Has(RightWrite) {
		binary.LittleEndian.PutUint16(b, x)
		return
	}
	v.refuse(RightWrite, off, 2)
}

// DWord is Table.ReadDWord on the viewed object.
func (v *View) DWord(off uint32) uint32 {
	if b, ok := span(v.data, off, 4); ok && v.ad.Rights.Has(RightRead) {
		return binary.LittleEndian.Uint32(b)
	}
	v.refuse(RightRead, off, 4)
	return 0
}

// SetDWord is Table.WriteDWord on the viewed object.
func (v *View) SetDWord(off uint32, x uint32) {
	if b, ok := span(v.data, off, 4); ok && v.ad.Rights.Has(RightWrite) {
		binary.LittleEndian.PutUint32(b, x)
		return
	}
	v.refuse(RightWrite, off, 4)
}

// Bytes is Table.ReadBytes on the viewed object: a fresh slice.
func (v *View) Bytes(off, n uint32) []byte {
	return append([]byte(nil), v.Span(RightRead, off, n)...)
}

// SetBytes is Table.WriteBytes on the viewed object.
func (v *View) SetBytes(off uint32, p []byte) {
	copy(v.Span(RightWrite, off, uint32(len(p))), p)
}

// LoadAD is Table.LoadAD on the viewed object.
func (v *View) LoadAD(slot uint32) AD {
	if b, ok := v.access.slot(slot); ok && v.ad.Rights.Has(RightRead) {
		return DecodeAD(binary.LittleEndian.Uint64(b))
	}
	if v.f == nil {
		v.Latch(v.t.refuseSlot(v.ad, RightRead, slot))
	}
	return NilAD
}

// StoreAD is Table.StoreAD into the viewed object.
func (v *View) StoreAD(slot uint32, src AD) { v.storeAD(slot, src, true) }

// StoreADSystem is Table.StoreADSystem into the viewed object.
func (v *View) StoreADSystem(slot uint32, src AD) { v.storeAD(slot, src, false) }

func (v *View) storeAD(slot uint32, src AD, user bool) {
	switch {
	case v.f != nil:
	case !v.ad.Rights.Has(RightWrite):
		v.Latch(v.t.whyNot(v.ad, RightWrite))
	default:
		v.Latch(v.t.moveAD(v.ad, &v.access, slot, src, user))
	}
}
