package obj

// Checked access paths. Every read and write in the system — by user
// processes, iMAX packages, and the collector alike — goes through a View
// (view.go), which tests the access rule (Table.present) when it is filled
// and the rights and bounds rules (span, slot) on each access: the
// per-reference hardware checking of §7.1, stated once. Each single-shot
// accessor below is an open and one access through the view it opens; a
// write then ends in written, which clears FlagPristine if it landed.

import (
	"encoding/binary"

	"repro/internal/trace"
)

// span is the bounds rule: the n bytes at displacement off of part.
func span(part []byte, off, n uint32) ([]byte, bool) {
	if uint64(off)+uint64(n) > uint64(len(part)) {
		return nil, false
	}
	return part[off : off+n], true
}

// open is a single-shot accessor's view of a: a fill, which leaves
// FlagPristine alone, with a refusal latched as whyNot diagnoses it.
func (t *Table) open(a AD, want Rights, v *View) {
	if t.fill(a, want, v) == nil {
		*v = View{t: t, ad: a, f: t.whyNot(a, want)}
	}
}

// written ends a single-shot write through v: a write that landed leaves
// its object not pristine. It returns the write's fault.
func (t *Table) written(v *View) *Fault {
	if v.f == nil {
		t.descs[v.ad.Index].Flags &^= FlagPristine
	}
	return v.f
}

// ReadByteAt reads the byte at displacement off in the data part.
func (t *Table) ReadByteAt(a AD, off uint32) (byte, *Fault) {
	var v View
	t.open(a, RightRead, &v)
	if b := v.Span(RightRead, off, 1); b != nil {
		return b[0], nil
	}
	return 0, v.f
}

// WriteByteAt writes the byte at displacement off in the data part.
func (t *Table) WriteByteAt(a AD, off uint32, x byte) *Fault {
	var v View
	t.open(a, RightWrite, &v)
	if b := v.Span(RightWrite, off, 1); b != nil {
		b[0] = x
	}
	return t.written(&v)
}

// ReadDWord reads the 32-bit value at displacement off in the data part.
func (t *Table) ReadDWord(a AD, off uint32) (uint32, *Fault) {
	var v View
	t.open(a, RightRead, &v)
	return v.DWord(off), v.Fault()
}

// WriteDWord writes the 32-bit value at displacement off in the data part.
func (t *Table) WriteDWord(a AD, off uint32, x uint32) *Fault {
	var v View
	t.open(a, RightWrite, &v)
	v.SetDWord(off, x)
	return t.written(&v)
}

// ReadBytes reads n bytes at displacement off in the data part into a
// fresh slice.
func (t *Table) ReadBytes(a AD, off, n uint32) ([]byte, *Fault) {
	var v View
	t.open(a, RightRead, &v)
	return v.Bytes(off, n), v.Fault()
}

// WriteBytes writes p at displacement off in the data part.
func (t *Table) WriteBytes(a AD, off uint32, p []byte) *Fault {
	var v View
	t.open(a, RightWrite, &v)
	v.SetBytes(off, p)
	return t.written(&v)
}

// accessPart is the access part of a resolved object: its window, and the
// descriptor fields the AD-move microcode consults. It holds no
// *Descriptor, so it stays good when the table grows.
type accessPart struct {
	win   []byte
	slots uint32
	level Level
	typ   Type
}

func (t *Table) accessOf(d *Descriptor) accessPart {
	return accessPart{t.mem.Window(d.Access()), uint32(d.AccessSlots), d.Level, d.Type}
}

// slot is the bounds rule of the access part: the bytes of slot i.
func (p *accessPart) slot(i uint32) ([]byte, bool) {
	if i >= p.slots {
		return nil, false
	}
	return span(p.win, i*ADSlotSize, ADSlotSize)
}

// refuseSlot diagnoses an access-part access that present or slot turned
// down. A slot past AccessSlots is the program's error; a window shorter
// than its descriptor says is damage.
func (t *Table) refuseSlot(a AD, want Rights, slot uint32) *Fault {
	d := t.present(a, want)
	if d == nil {
		return t.whyNot(a, want)
	}
	if slot >= uint32(d.AccessSlots) {
		return Faultf(FaultBounds, a, "access slot %d of %d", slot, d.AccessSlots)
	}
	return Faultf(FaultOddity, a, "access part shorter than its %d slots", d.AccessSlots)
}

// LoadAD loads the access descriptor in the given slot of a's access part.
// Reading an AD requires the Read right on the container.
func (t *Table) LoadAD(a AD, slot uint32) (AD, *Fault) {
	var v View
	t.open(a, RightRead, &v)
	return v.LoadAD(slot), v.Fault()
}

// StoreAD stores capability src into the given slot of dst's access part.
// This is the AD-move microcode and carries the two duties §5 and §8.1
// assign to it:
//
//   - the lifetime level check: "an access for an object may never be
//     stored into an object with a lower (more global) level number" — a
//     reference to a short-lived object must not outlive it by hiding in a
//     longer-lived object;
//   - the collector's gray bit: "the 432 hardware implements the gray bit
//     of that algorithm, setting it whenever access descriptors are moved"
//     (Dijkstra's shade-the-target write barrier).
//
// Storing NilAD clears the slot and needs no checks beyond Write.
func (t *Table) StoreAD(dst AD, slot uint32, src AD) *Fault {
	var v View
	t.open(dst, RightWrite, &v)
	v.StoreAD(slot, src)
	return t.written(&v)
}

// StoreADSystem is the microcode-internal AD store: it performs validity,
// rights-on-container and gray-bit duties but skips the lifetime level
// check. The hardware's own transient queues need it — a process blocking
// at a more global port is briefly linked below it (via a carrier object)
// even though the process is shorter-lived; the microcode unlinks the
// carrier before the process can die, so no dangling reference is ever
// user-visible. Only the port and dispatching machinery may use this path;
// everything user-reachable goes through StoreAD.
func (t *Table) StoreADSystem(dst AD, slot uint32, src AD) *Fault {
	var v View
	t.open(dst, RightWrite, &v)
	v.StoreADSystem(slot, src)
	return t.written(&v)
}

// moveAD is the AD-move microcode: it stores src into a slot of p, the
// access part of dst's object. user selects the user-reachable store (level
// check, context stores invalidate caches) over the microcode-internal one;
// a store into a process's context slot or a domain's code slot invalidates
// either way.
func (t *Table) moveAD(dst AD, p *accessPart, slot uint32, src AD, user bool) *Fault {
	b, ok := p.slot(slot)
	if !ok {
		return t.refuseSlot(dst, RightWrite, slot)
	}
	if src.Valid() {
		sd, f := t.Resolve(src)
		if f != nil {
			return f
		}
		if user && sd.Level > p.level {
			return Faultf(FaultLevel, src,
				"cannot store level-%d object into level-%d object", sd.Level, p.level)
		}
		// Shade the target of the moved AD for the on-the-fly
		// collector.
		if sd.Color == White {
			sd.Color = Gray
			t.grayings++
			if l := t.tr; l != nil {
				l.Emit(trace.EvGray, uint32(src.Index), 0, 0)
			}
		}
		// A freshly stored reference re-adopts the object: it gets a
		// new destruction-filter life (§8.2). The collector's own
		// filter delivery sets the latch after its deposit, so a
		// delivered-then-dropped object still reclaims quietly.
		sd.Flags &^= FlagFinalized
	}
	binary.LittleEndian.PutUint64(b, src.Encode())
	if p.typ == TypeProcess && slot == ProcessSlotContext || p.typ == TypeDomain && slot == DomainSlotCode ||
		user && p.typ == TypeContext {
		// The store redirects execution structure the execution cache pins:
		// PushContext and PopContext switch the context slot of a process,
		// a store into a domain's code slot replaces the program a running
		// process fetches from, and a user-reachable store can rewrite a
		// context's domain slot.
		// No cache holds any other slot of a process (ports, tree links,
		// the carry slot a wake-up loads: the resume word in the context
		// announces that one), and system stores into a context are the
		// access registers, re-read through the live window on every
		// execution — a bump for either would kill every processor's
		// binding on every message.
		t.xgen++
	}
	t.adStores++
	if l := t.tr; l != nil {
		l.Emit(trace.EvADStore, uint32(dst.Index), uint32(src.Index), uint64(slot))
	}
	return nil
}
