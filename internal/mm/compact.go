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
// Compact is provided on the swapping manager (it owns segment motion);
// the non-swapping release omits it, as release 1 of iMAX omitted
// everything beyond basic allocation (§9).

// Compact relocates resident objects toward low memory until no further
// move helps, reducing external fragmentation. It reports the number of
// segments moved and the simulated cycles charged. Pinned objects move
// too — pinning protects from reclamation and swapping, not from motion,
// which is invisible through the descriptor indirection.
func (m *Swapping) Compact() (moved int, spent vtime.Cycles, fault *obj.Fault) {
	// Pass over the resident set in table order, moving every part that
	// first-fit would place strictly lower, until a pass moves nothing.
	// Simple and quadratic-ish, but bounded by what is in memory (never
	// by the table) and deterministic.
	t, phys := m.Table, m.Table.Memory()
	for progress := true; progress; {
		progress = false
		// A part larger than the largest hole cannot move, and under
		// pressure that is most of them; a move makes new holes.
		largest := phys.LargestFree()
		for idx := t.NextResident(obj.NilIndex); idx != obj.NilIndex; idx = t.NextResident(idx) {
			d := t.DescriptorAt(idx)
			if d == nil || d.SwappedOut {
				continue
			}
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
	m.Compactions++
	m.CompactMoves += uint64(moved)
	m.CompactCycles += spent
	return moved, spent, nil
}

// tryMoveLower relocates extent e if first-fit would place it at a strictly
// lower address; it reports the new extent. It asks before it allocates:
// an extent with no fitting hole beneath it costs a look at the free list
// up to its own base and nothing else.
func (m *Swapping) tryMoveLower(e mem.Extent) (mem.Extent, bool) {
	mem := m.Table.Memory()
	src := mem.Window(e)
	if src == nil || !mem.FitsBelow(e.Len, e.Base) {
		return e, false
	}
	dst, err := mem.Alloc(e.Len)
	if err != nil {
		return e, false
	}
	if err := mem.WriteBytes(dst, 0, src); err != nil {
		_ = mem.Free(dst)
		return e, false
	}
	// Should the old extent be damaged, keep the copy anyway: the
	// descriptor must point at valid storage.
	_ = mem.Free(e)
	return dst, true
}
