package obj

import (
	"testing"

	"repro/internal/mem"
)

// TestPristineFlag holds FlagPristine to its definition: Create sets it,
// the two ways to a written byte of an object clear it (a Fill, which hands
// out writable windows, and a single-shot write that lands), and every
// read, a refused fill or write, a swap-out and swap-in and a compaction
// move leave it set, with both parts still reading zero. The object an AD
// store reads as its source stays pristine in every row.
func TestPristineFlag(t *testing.T) {
	var v View
	for _, c := range []struct {
		name     string
		op       func(tab *Table, ad, other AD) bool // false: the operation did not do what the row says
		pristine bool
	}{
		{"Create", func(*Table, AD, AD) bool { return true }, true},

		// The two clearing sites: Fill, under every View, and the end of
		// each single-shot write.
		{"Fill with the write right", func(tab *Table, ad, _ AD) bool {
			return tab.Fill(ad, RightWrite, &v)
		}, false},
		{"Fill without the write right", func(tab *Table, ad, _ AD) bool {
			return tab.Fill(ad.Restrict(RightWrite), RightRead, &v)
		}, false},
		{"View", func(tab *Table, ad, _ AD) bool {
			tab.View(ad.Restrict(RightWrite), TypeGeneric, RightRead, &v)
			return v.Fault() == nil
		}, false},
		{"WriteByteAt", func(tab *Table, ad, _ AD) bool {
			return tab.WriteByteAt(ad, 63, 1) == nil
		}, false},
		{"WriteDWord", func(tab *Table, ad, _ AD) bool {
			return tab.WriteDWord(ad, 0, 1) == nil
		}, false},
		{"WriteBytes", func(tab *Table, ad, _ AD) bool {
			return tab.WriteBytes(ad, 8, []byte{1, 2}) == nil
		}, false},
		{"WriteBytes of zeros", func(tab *Table, ad, _ AD) bool {
			return tab.WriteBytes(ad, 8, make([]byte, 8)) == nil
		}, false},
		{"StoreAD", func(tab *Table, ad, other AD) bool {
			return tab.StoreAD(ad, 3, other) == nil
		}, false},
		{"StoreADSystem", func(tab *Table, ad, other AD) bool {
			return tab.StoreADSystem(ad, 0, other) == nil
		}, false},

		// Reads.
		{"ReadByteAt", func(tab *Table, ad, _ AD) bool {
			_, f := tab.ReadByteAt(ad, 63)
			return f == nil
		}, true},
		{"ReadDWord", func(tab *Table, ad, _ AD) bool {
			_, f := tab.ReadDWord(ad, 0)
			return f == nil
		}, true},
		{"ReadBytes", func(tab *Table, ad, _ AD) bool {
			_, f := tab.ReadBytes(ad, 0, 64)
			return f == nil
		}, true},
		{"LoadAD", func(tab *Table, ad, _ AD) bool {
			_, f := tab.LoadAD(ad, 3)
			return f == nil
		}, true},
		{"Referents", func(tab *Table, ad, _ AD) bool {
			return tab.Referents(ad.Index, func(AD) {}) == nil
		}, true},

		// Refusals, which hand out no window.
		{"Fill refused for a right", func(tab *Table, ad, _ AD) bool {
			return !tab.Fill(ad.Restrict(RightWrite), RightWrite, &v)
		}, true},
		{"View refused for a right", func(tab *Table, ad, _ AD) bool {
			tab.View(ad.Restrict(RightRead), TypeGeneric, RightRead, &v)
			return IsFault(v.Fault(), FaultRights)
		}, true},
		{"WriteDWord refused past the end", func(tab *Table, ad, _ AD) bool {
			return IsFault(tab.WriteDWord(ad, 62, 1), FaultBounds)
		}, true},
		{"WriteBytes refused for a right", func(tab *Table, ad, _ AD) bool {
			return IsFault(tab.WriteBytes(ad.Restrict(RightWrite), 0, []byte{1}), FaultRights)
		}, true},
		{"StoreAD refused for a right", func(tab *Table, ad, other AD) bool {
			return IsFault(tab.StoreAD(ad.Restrict(RightWrite), 0, other), FaultRights)
		}, true},
		{"StoreAD refused past the last slot", func(tab *Table, ad, other AD) bool {
			return IsFault(tab.StoreAD(ad, 4, other), FaultBounds)
		}, true},
		{"StoreAD refused by the level rule", func(tab *Table, ad, _ AD) bool {
			local, f := tab.Create(CreateSpec{Type: TypeGeneric, Level: 1, DataLen: 8})
			return f == nil && IsFault(tab.StoreAD(ad, 0, local), FaultLevel)
		}, true},

		// Motion.
		{"SwapOut and SwapIn", func(tab *Table, ad, _ AD) bool {
			if tab.SwapOut(ad.Index, 1, 0, 0) != nil || tab.Fill(ad, 0, &v) {
				return false // a fill of a swapped-out object is refused
			}
			_, _, f := tab.SwapIn(ad.Index)
			return f == nil
		}, true},
		{"compaction move", func(tab *Table, ad, _ AD) bool {
			// What mm's compactor does: each part copied to a fresh
			// extent, the old one freed, the bases rewritten behind the
			// table.
			d, phys := tab.DescriptorAt(ad.Index), tab.Memory()
			var to [2]mem.Extent
			for i, from := range [2]mem.Extent{d.Data(), d.Access()} {
				dst, err := phys.Alloc(from.Len)
				if err != nil {
					return false
				}
				copy(phys.Window(dst), phys.Window(from))
				if phys.Free(from) != nil {
					return false
				}
				to[i] = dst
			}
			d.SetBases(to[0].Base, to[1].Base)
			tab.InvalidateCaches()
			return true
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			tab := newTestTable(t)
			other := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8})
			ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 64, AccessSlots: 4})
			if !c.op(tab, ad, other) {
				t.Fatal("the operation did not do what the row says")
			}
			d := tab.DescriptorAt(ad.Index)
			if d.Pristine() != c.pristine {
				t.Fatalf("pristine = %v, want %v", d.Pristine(), c.pristine)
			}
			if !tab.DescriptorAt(other.Index).Pristine() {
				t.Fatal("the AD store's source lost its FlagPristine")
			}
			if c.pristine {
				phys := tab.Memory()
				for _, p := range [][]byte{phys.Window(d.Data()), phys.Window(d.Access())} {
					for i, b := range p {
						if b != 0 {
							t.Fatalf("a pristine object's byte %d of %d reads %#x", i, len(p), b)
						}
					}
				}
			}
		})
	}
}
