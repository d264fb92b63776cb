package obj

// Checked access paths. Every read and write in the system — by user
// processes, iMAX packages, and the collector alike — goes through these
// methods, so a capability's rights and its object's bounds are enforced on
// every reference, exactly the per-reference hardware checking of §7.1.

import "repro/internal/trace"

// ReadByteAt reads the byte at displacement off in the data part.
func (t *Table) ReadByteAt(a AD, off uint32) (byte, *Fault) {
	d, f := t.resolvePresent(a, RightRead)
	if f != nil {
		return 0, f
	}
	v, err := t.mem.ReadByteAt(d.Data, off)
	if err != nil {
		return 0, Faultf(FaultBounds, a, "%v", err)
	}
	return v, nil
}

// WriteByteAt writes the byte at displacement off in the data part.
func (t *Table) WriteByteAt(a AD, off uint32, v byte) *Fault {
	d, f := t.resolvePresent(a, RightWrite)
	if f != nil {
		return f
	}
	if err := t.mem.WriteByteAt(d.Data, off, v); err != nil {
		return Faultf(FaultBounds, a, "%v", err)
	}
	return nil
}

// ReadWord reads the 16-bit ordinal at displacement off in the data part.
func (t *Table) ReadWord(a AD, off uint32) (uint16, *Fault) {
	d, f := t.resolvePresent(a, RightRead)
	if f != nil {
		return 0, f
	}
	v, err := t.mem.ReadWord(d.Data, off)
	if err != nil {
		return 0, Faultf(FaultBounds, a, "%v", err)
	}
	return v, nil
}

// WriteWord writes the 16-bit ordinal at displacement off in the data part.
func (t *Table) WriteWord(a AD, off uint32, v uint16) *Fault {
	d, f := t.resolvePresent(a, RightWrite)
	if f != nil {
		return f
	}
	if err := t.mem.WriteWord(d.Data, off, v); err != nil {
		return Faultf(FaultBounds, a, "%v", err)
	}
	return nil
}

// ReadDWord reads the 32-bit value at displacement off in the data part.
func (t *Table) ReadDWord(a AD, off uint32) (uint32, *Fault) {
	d, f := t.resolvePresent(a, RightRead)
	if f != nil {
		return 0, f
	}
	v, err := t.mem.ReadDWord(d.Data, off)
	if err != nil {
		return 0, Faultf(FaultBounds, a, "%v", err)
	}
	return v, nil
}

// WriteDWord writes the 32-bit value at displacement off in the data part.
func (t *Table) WriteDWord(a AD, off uint32, v uint32) *Fault {
	d, f := t.resolvePresent(a, RightWrite)
	if f != nil {
		return f
	}
	if err := t.mem.WriteDWord(d.Data, off, v); err != nil {
		return Faultf(FaultBounds, a, "%v", err)
	}
	return nil
}

// ReadBytes reads n bytes at displacement off in the data part.
func (t *Table) ReadBytes(a AD, off, n uint32) ([]byte, *Fault) {
	d, f := t.resolvePresent(a, RightRead)
	if f != nil {
		return nil, f
	}
	p, err := t.mem.ReadBytes(d.Data, off, n)
	if err != nil {
		return nil, Faultf(FaultBounds, a, "%v", err)
	}
	return p, nil
}

// WriteBytes writes p at displacement off in the data part.
func (t *Table) WriteBytes(a AD, off uint32, p []byte) *Fault {
	d, f := t.resolvePresent(a, RightWrite)
	if f != nil {
		return f
	}
	if err := t.mem.WriteBytes(d.Data, off, p); err != nil {
		return Faultf(FaultBounds, a, "%v", err)
	}
	return nil
}

// LoadAD loads the access descriptor in the given slot of a's access part.
// Reading an AD requires the Read right on the container.
func (t *Table) LoadAD(a AD, slot uint32) (AD, *Fault) {
	d, f := t.resolvePresent(a, RightRead)
	if f != nil {
		return NilAD, f
	}
	if slot >= d.AccessSlots {
		return NilAD, Faultf(FaultBounds, a, "access slot %d of %d", slot, d.AccessSlots)
	}
	lo, err := t.mem.ReadDWord(d.Access, slot*ADSlotSize)
	if err != nil {
		return NilAD, Faultf(FaultOddity, a, "%v", err)
	}
	hi, err := t.mem.ReadDWord(d.Access, slot*ADSlotSize+4)
	if err != nil {
		return NilAD, Faultf(FaultOddity, a, "%v", err)
	}
	return DecodeAD(uint64(lo) | uint64(hi)<<32), nil
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
	d, f := t.resolvePresent(dst, RightWrite)
	if f != nil {
		return f
	}
	if slot >= d.AccessSlots {
		return Faultf(FaultBounds, dst, "access slot %d of %d", slot, d.AccessSlots)
	}
	if src.Valid() {
		sd, f := t.Resolve(src)
		if f != nil {
			return f
		}
		if sd.Level > d.Level {
			return Faultf(FaultLevel, src,
				"cannot store level-%d object into level-%d object", sd.Level, d.Level)
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
	enc := src.Encode()
	if err := t.mem.WriteDWord(d.Access, slot*ADSlotSize, uint32(enc)); err != nil {
		return Faultf(FaultOddity, dst, "%v", err)
	}
	if err := t.mem.WriteDWord(d.Access, slot*ADSlotSize+4, uint32(enc>>32)); err != nil {
		return Faultf(FaultOddity, dst, "%v", err)
	}
	if d.Type == TypeProcess || d.Type == TypeContext {
		// A user-reachable AD store into a process or context can redirect
		// execution structure the interpreter's execution cache pins (the
		// current context, the domain slot).
		t.xgen++
	}
	t.adStores++
	if l := t.tr; l != nil {
		l.Emit(trace.EvADStore, uint32(dst.Index), uint32(src.Index), uint64(slot))
	}
	return nil
}

// MoveAD is the capability-passing form of StoreAD: it stores src with
// rights restricted by drop, modelling the 432's rights reduction on copy.
func (t *Table) MoveAD(dst AD, slot uint32, src AD, drop Rights) *Fault {
	return t.StoreAD(dst, slot, src.Restrict(drop))
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
	d, f := t.resolvePresent(dst, RightWrite)
	if f != nil {
		return f
	}
	if slot >= d.AccessSlots {
		return Faultf(FaultBounds, dst, "access slot %d of %d", slot, d.AccessSlots)
	}
	if src.Valid() {
		sd, f := t.Resolve(src)
		if f != nil {
			return f
		}
		if sd.Color == White {
			sd.Color = Gray
			t.grayings++
			if l := t.tr; l != nil {
				l.Emit(trace.EvGray, uint32(src.Index), 0, 0)
			}
		}
		sd.Finalized = false // see StoreAD: storing re-adopts
	}
	enc := src.Encode()
	if err := t.mem.WriteDWord(d.Access, slot*ADSlotSize, uint32(enc)); err != nil {
		return Faultf(FaultOddity, dst, "%v", err)
	}
	if err := t.mem.WriteDWord(d.Access, slot*ADSlotSize+4, uint32(enc>>32)); err != nil {
		return Faultf(FaultOddity, dst, "%v", err)
	}
	if d.Type == TypeProcess {
		// System stores into process slots switch contexts (PushContext,
		// PopContext) and load the carry slot; both alias the execution
		// cache. Context-object system stores are the access registers
		// (SetAReg), which the cache reads through the checked path — no
		// bump, or every AD-handling instruction would thrash the cache.
		// The trace compiler leans on the same discipline: a fused
		// load/store re-reads its a-reg from the live access window on
		// every execution, so a SetAReg under a compiled trace is
		// observed without invalidation (and a vanished operand deopts).
		t.xgen++
	}
	t.adStores++
	if l := t.tr; l != nil {
		l.Emit(trace.EvADStore, uint32(dst.Index), uint32(src.Index), uint64(slot))
	}
	return nil
}
