package obj

import (
	"encoding/binary"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Collector and memory-manager support. These entry points sit below the
// capability discipline — they are the part of the "hardware" that the
// garbage collector daemon and the swapping memory manager are trusted to
// use (§8.1, §6.2). Nothing else should touch them.

// ColorOf reports the marking colour of the object at idx, and whether the
// slot holds a live object at all.
func (t *Table) ColorOf(idx Index) (Color, bool) {
	if int(idx) >= len(t.descs) || idx == NilIndex {
		return White, false
	}
	d := &t.descs[idx]
	if !d.Valid() {
		return White, false
	}
	return d.Color, true
}

// SetColor sets the marking colour of a live object.
func (t *Table) SetColor(idx Index, c Color) {
	if int(idx) < len(t.descs) && idx != NilIndex {
		if d := &t.descs[idx]; d.Valid() {
			d.Color = c
		}
	}
}

// IsPinned reports whether the object is a permanent root.
func (t *Table) IsPinned(idx Index) bool {
	if int(idx) >= len(t.descs) || idx == NilIndex {
		return false
	}
	d := &t.descs[idx]
	return d.Flags&(FlagValid|FlagPinned) == FlagValid|FlagPinned
}

// Pin marks the object as a permanent root (processor objects, the system
// directory). Pinned objects are never reclaimed.
func (t *Table) Pin(a AD) *Fault {
	d, f := t.Resolve(a)
	if f != nil {
		return f
	}
	d.Flags |= FlagPinned
	return nil
}

// DescriptorAt exposes the descriptor at idx to trusted subsystems for
// inspection (the collector scanning, the filing system passivating).
// It returns nil for invalid slots.
func (t *Table) DescriptorAt(idx Index) *Descriptor {
	if int(idx) >= len(t.descs) || idx == NilIndex {
		return nil
	}
	d := &t.descs[idx]
	if !d.Valid() {
		return nil
	}
	return d
}

// SystemAD manufactures a full-rights capability for the live object at idx,
// or reports false for an empty slot. It is the one place a capability is
// made from a raw index below the discipline: the collector delivering a
// garbage instance to its destruction filter, the microcode reaching a
// port's SRO, the filing system and the auditor reading what they hold no
// AD for all come through here.
func (t *Table) SystemAD(idx Index) (AD, bool) {
	d := t.DescriptorAt(idx)
	if d == nil {
		return NilAD, false
	}
	return AD{Index: idx, Gen: d.Gen & adGenMask, Rights: RightsAll}, true
}

// Referents calls fn with each valid AD stored in the object's access
// part. The collector's scan step uses this; it bypasses rights (the
// collector holds no capabilities) but not validity.
func (t *Table) Referents(idx Index, fn func(AD)) *Fault {
	d := t.DescriptorAt(idx)
	if d == nil {
		return Faultf(FaultInvalidAD, AD{Index: idx}, "no such object")
	}
	if d.SwappedOut() {
		return Faultf(FaultSegmentMoved, AD{Index: idx}, "cannot scan swapped object")
	}
	p := t.accessOf(d)
	for i := uint32(0); i < p.slots; i++ {
		b, ok := p.slot(i)
		if !ok {
			return Faultf(FaultOddity, AD{Index: idx}, "access part shorter than its %d slots", p.slots)
		}
		if a := DecodeAD(binary.LittleEndian.Uint64(b)); a.Valid() {
			// Skip dangling entries (object since destroyed):
			// they carry no reachability.
			if _, f := t.Resolve(a); f == nil {
				fn(a)
			}
		}
	}
	return nil
}

// AliveBySRO calls fn with the index of every live object whose ancestral
// SRO is sro. SRO bulk destruction (§5: local-heap reclamation) walks this.
func (t *Table) AliveBySRO(sro Index, fn func(Index)) {
	for i := 1; i < len(t.descs); i++ {
		if t.descs[i].Valid() && t.descs[i].SRO == sro {
			fn(Index(i))
		}
	}
}

// SwapOut marks the object's segments as resident in the backing store
// under token and releases its physical memory. Only the swapping memory
// manager calls this. The object's contents must already have been copied
// out by the caller (through Memory()), which measured each part's
// possibly non-zero prefix on the way: dataDirty and accessDirty bytes,
// the only ones the free zeroes (mem.Memory.FreePrefix).
func (t *Table) SwapOut(idx Index, token uint64, dataDirty, accessDirty uint32) *Fault {
	d := t.DescriptorAt(idx)
	if d == nil {
		return Faultf(FaultInvalidAD, AD{Index: idx}, "no such object")
	}
	if d.SwappedOut() {
		return Faultf(FaultSegmentMoved, AD{Index: idx}, "already swapped out")
	}
	if d.Pinned() {
		return Faultf(FaultOddity, AD{Index: idx}, "cannot swap a pinned object")
	}
	if d.DataLen > 0 {
		if err := t.mem.FreePrefix(d.Data(), dataDirty); err != nil {
			return Faultf(FaultOddity, AD{Index: idx}, "%v", err)
		}
	}
	if d.AccessSlots > 0 {
		if err := t.mem.FreePrefix(d.Access(), accessDirty); err != nil {
			return Faultf(FaultOddity, AD{Index: idx}, "%v", err)
		}
	}
	d.Flags |= FlagSwappedOut
	d.Place = token
	t.resident[idx/64] &^= 1 << (idx % 64)
	t.xgen++ // cached windows over the freed extents are dead
	if l := t.tr; l != nil {
		l.Emit(trace.EvSwapOut, uint32(idx), 0, token)
	}
	return nil
}

// SwapIn reallocates physical memory for a swapped-out object and marks it
// resident again. The caller (the memory manager) then restores the
// contents through Memory(). It reports the fresh extents.
func (t *Table) SwapIn(idx Index) (data, access mem.Extent, f *Fault) {
	d := t.DescriptorAt(idx)
	if d == nil {
		return data, access, Faultf(FaultInvalidAD, AD{Index: idx}, "no such object")
	}
	if !d.SwappedOut() {
		return data, access, Faultf(FaultOddity, AD{Index: idx}, "not swapped out")
	}
	var err error
	if d.DataLen > 0 {
		data, err = t.mem.Alloc(d.DataLen)
		if err != nil {
			return mem.Extent{}, mem.Extent{}, &Fault{Code: FaultNoMemory, AD: AD{Index: idx}, Detail: noMemory}
		}
	}
	if d.AccessSlots > 0 {
		access, err = t.mem.Alloc(uint32(d.AccessSlots) * ADSlotSize)
		if err != nil {
			if d.DataLen > 0 {
				_ = t.mem.Free(data)
			}
			return mem.Extent{}, mem.Extent{}, &Fault{Code: FaultNoMemory, AD: AD{Index: idx}, Detail: noMemory}
		}
	}
	d.Flags &^= FlagSwappedOut
	d.SetBases(data.Base, access.Base)
	t.resident[idx/64] |= 1 << (idx % 64)
	t.xgen++ // the object landed at fresh extents; re-prime any windows
	if l := t.tr; l != nil {
		l.Emit(trace.EvSwapIn, uint32(idx), 0, 0)
	}
	return data, access, nil
}
