package mm

import (
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/vtime"
)

// Compaction. First-fit allocation fragments physical memory; the 432's
// object descriptors made compaction straightforward because every
// segment has exactly one descriptor holding its physical address — move
// the bytes, update the descriptor, and every capability in the system
// still works (capabilities name the descriptor, not the address). This
// is the same indirection the swapping manager exploits, and the reason
// the paper can say a segment "might be being moved and therefore be
// inaccessible for some period of time" (§7.3) without breaking anyone.
//
// A pass ends with no resident part that first-fit would place lower, and
// mem keeps that property for it (Memory.Settle, Settled): while no hole
// has grown past what the last pass left below it and nothing placed since
// could move, the next pass returns at once. It counts the visits the walk
// would have made, so every counter reads what a walk gives.
//
// Compact is provided on the swapping manager (it owns segment motion);
// the non-swapping release omits it, as release 1 of iMAX omitted
// everything beyond basic allocation (§9).

// Compact relocates resident objects toward low memory until no further
// move helps, reducing external fragmentation. It reports the number of
// segments moved and the simulated cycles charged; the fault is always
// nil. Pinned objects move too — pinning protects from reclamation and
// swapping, not from motion, which is invisible through the descriptor
// indirection.
func (m *Swapping) Compact() (moved int, spent vtime.Cycles, fault *obj.Fault) {
	t, phys := m.Table, m.Table.Memory()
	if phys.Settled() {
		// One pass that moves nothing.
		m.CompactVisits += uint64(t.ResidentCount())
	} else {
		moved, spent = m.walk()
	}
	phys.Settle()
	m.Compactions++
	m.CompactMoves += uint64(moved)
	m.CompactCycles += spent
	return moved, spent, nil
}

// walk passes over the resident set in table order, moving every part that
// first-fit would place strictly lower, until a pass moves nothing. Simple
// and quadratic-ish, but bounded by what is in memory (never by the table)
// and deterministic.
func (m *Swapping) walk() (moved int, spent vtime.Cycles) {
	t, phys := m.Table, m.Table.Memory()
	for progress := true; progress; {
		progress = false
		// A part larger than the largest hole cannot move, and under
		// pressure that is most of them; a move makes new holes.
		largest := phys.LargestFree()
		for idx := t.NextResident(obj.NilIndex); idx != obj.NilIndex; idx = t.NextResident(idx) {
			d := t.DescriptorAt(idx)
			m.CompactVisits++
			// Try moving each part to a strictly lower address.
			for _, part := range [2]*mem.Extent{&d.Data, &d.Access} {
				if part.Len == 0 || part.Len > largest {
					continue
				}
				if e, ok := m.tryMoveLower(*part); ok {
					*part = e
					moved++
					spent += vtime.CostSwapIn/4 + vtime.Cycles(part.Len/64)
					progress = true
					largest = phys.LargestFree()
				}
			}
		}
	}
	if moved > 0 {
		// Extents were rewritten behind the table's back (directly
		// through DescriptorAt); any execution-cache window over a moved
		// segment now points at freed bytes.
		t.InvalidateCaches()
	}
	return moved, spent
}

// tryMoveLower relocates extent e if first-fit would place it at a strictly
// lower address; it reports the new extent. It asks before it allocates:
// an extent with no fitting hole beneath it costs a look at the free list
// up to its own base and nothing else. Once FitsBelow has said yes nothing
// below can fail: Alloc takes the hole it found, the copy fills exactly the
// new extent, and e is a live part.
func (m *Swapping) tryMoveLower(e mem.Extent) (mem.Extent, bool) {
	mem := m.Table.Memory()
	if !mem.FitsBelow(e.Len, e.Base) {
		return e, false
	}
	dst, _ := mem.Alloc(e.Len)
	_ = mem.WriteBytes(dst, 0, mem.Window(e))
	_ = mem.Free(e)
	return dst, true
}
