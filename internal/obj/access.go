package obj

// Checked access paths. Every read and write in the system — by user
// processes, iMAX packages, and the collector alike — goes through these
// methods or through a View (view.go), so a capability's rights and its
// object's bounds are enforced on every reference, exactly the
// per-reference hardware checking of §7.1. Each accessor is the access rule
// (Table.present), the bounds rule (span), then the transfer, in one frame;
// when a rule refuses, an outlined diagnosis (refuse, refuseSlot) says why.

import (
	"encoding/binary"

	"repro/internal/mem"
	"repro/internal/trace"
)

// span is the bounds rule: the n bytes at displacement off of part.
func span(part []byte, off, n uint32) ([]byte, bool) {
	if uint64(off)+uint64(n) > uint64(len(part)) {
		return nil, false
	}
	return part[off : off+n], true
}

// refuse diagnoses a data-part access that present or span turned down:
// whyNot's clauses first, then the displacement.
func (t *Table) refuse(a AD, want Rights, off, n uint32) *Fault {
	d := t.present(a, want)
	if d == nil {
		return t.whyNot(a, want)
	}
	return Faultf(FaultBounds, a, "%v: [%d,%d) in segment of %d bytes", mem.ErrBadSegment, off, off+n, d.Data.Len)
}

// ReadByteAt reads the byte at displacement off in the data part.
func (t *Table) ReadByteAt(a AD, off uint32) (byte, *Fault) {
	if d := t.present(a, RightRead); d != nil {
		if b, ok := span(t.mem.Window(d.Data), off, 1); ok {
			return b[0], nil
		}
	}
	return 0, t.refuse(a, RightRead, off, 1)
}

// WriteByteAt writes the byte at displacement off in the data part.
func (t *Table) WriteByteAt(a AD, off uint32, v byte) *Fault {
	if d := t.present(a, RightWrite); d != nil {
		if b, ok := span(t.mem.Window(d.Data), off, 1); ok {
			b[0] = v
			return nil
		}
	}
	return t.refuse(a, RightWrite, off, 1)
}

// ReadDWord reads the 32-bit value at displacement off in the data part.
func (t *Table) ReadDWord(a AD, off uint32) (uint32, *Fault) {
	if d := t.present(a, RightRead); d != nil {
		if b, ok := span(t.mem.Window(d.Data), off, 4); ok {
			return binary.LittleEndian.Uint32(b), nil
		}
	}
	return 0, t.refuse(a, RightRead, off, 4)
}

// WriteDWord writes the 32-bit value at displacement off in the data part.
func (t *Table) WriteDWord(a AD, off uint32, v uint32) *Fault {
	if d := t.present(a, RightWrite); d != nil {
		if b, ok := span(t.mem.Window(d.Data), off, 4); ok {
			binary.LittleEndian.PutUint32(b, v)
			return nil
		}
	}
	return t.refuse(a, RightWrite, off, 4)
}

// ReadBytes reads n bytes at displacement off in the data part into a
// fresh slice.
func (t *Table) ReadBytes(a AD, off, n uint32) ([]byte, *Fault) {
	if d := t.present(a, RightRead); d != nil {
		if b, ok := span(t.mem.Window(d.Data), off, n); ok {
			return append(make([]byte, 0, n), b...), nil
		}
	}
	return nil, t.refuse(a, RightRead, off, n)
}

// WriteBytes writes p at displacement off in the data part.
func (t *Table) WriteBytes(a AD, off uint32, p []byte) *Fault {
	if d := t.present(a, RightWrite); d != nil {
		if b, ok := span(t.mem.Window(d.Data), off, uint32(len(p))); ok {
			copy(b, p)
			return nil
		}
	}
	return t.refuse(a, RightWrite, off, uint32(len(p)))
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
	return accessPart{t.mem.Window(d.Access), d.AccessSlots, d.Level, d.Type}
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
	if slot >= d.AccessSlots {
		return Faultf(FaultBounds, a, "access slot %d of %d", slot, d.AccessSlots)
	}
	return Faultf(FaultOddity, a, "access part shorter than its %d slots", d.AccessSlots)
}

// LoadAD loads the access descriptor in the given slot of a's access part.
// Reading an AD requires the Read right on the container.
func (t *Table) LoadAD(a AD, slot uint32) (AD, *Fault) {
	if d := t.present(a, RightRead); d != nil {
		p := t.accessOf(d)
		if b, ok := p.slot(slot); ok {
			return DecodeAD(binary.LittleEndian.Uint64(b)), nil
		}
	}
	return NilAD, t.refuseSlot(a, RightRead, slot)
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
	return t.storeAD(dst, slot, src, true)
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
	return t.storeAD(dst, slot, src, false)
}

func (t *Table) storeAD(dst AD, slot uint32, src AD, user bool) *Fault {
	d := t.present(dst, RightWrite)
	if d == nil {
		return t.whyNot(dst, RightWrite)
	}
	p := t.accessOf(d)
	return t.moveAD(dst, &p, slot, src, user)
}

// moveAD is the AD-move microcode: it stores src into a slot of p, the
// access part of dst's object. user selects the user-reachable store (level
// check, context stores invalidate caches) over the microcode-internal one;
// a store into a process's context slot invalidates either way.
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
		sd.Finalized = false
	}
	binary.LittleEndian.PutUint64(b, src.Encode())
	if p.typ == TypeProcess && slot == ProcessSlotContext || user && p.typ == TypeContext {
		// The store redirects execution structure the execution cache pins:
		// PushContext and PopContext switch the context slot of a process,
		// and a user-reachable store can rewrite a context's domain slot.
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
