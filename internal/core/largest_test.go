package core

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/obj"
)

// TestLargestParts carries an object with both parts at their limits — a
// 65 536-byte data part and an 8 192-slot access part, whose byte length
// (8 192 × 8 = 65 536) is one past what 16 bits hold — through every path
// that rebuilds an extent from the descriptor: the last data dword and the
// last access slot are written and read back, the object is swapped out and
// in, compaction moves it, filing passivates and activates it, and both
// copies are reclaimed. The contents must survive each step, the slot past
// the last must be refused, and the auditor must find nothing.
func TestLargestParts(t *testing.T) {
	im, err := Boot(Config{Processors: 1, MemoryBytes: 1 << 20, Swapping: true, Filing: true})
	if err != nil {
		t.Fatal(err)
	}
	sw := im.Swapper
	must := func(f *obj.Fault) {
		t.Helper()
		if f != nil {
			t.Fatal(f)
		}
	}
	mustAD := func(ad obj.AD, f *obj.Fault) obj.AD {
		t.Helper()
		must(f)
		return ad
	}
	const lastSlot, lastDWord = obj.MaxAccessSlots - 1, mem.MaxPart - 4

	// A pinned 64 KB filler below the object stays resident; reclaimed, it
	// leaves the hole compaction moves the object's data part into.
	filler := mustAD(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: mem.MaxPart, Pinned: true}))
	big := mustAD(im.MM.Allocate(im.Heap, obj.CreateSpec{
		Type: obj.TypeGeneric, DataLen: mem.MaxPart, AccessSlots: obj.MaxAccessSlots,
	}))
	leaf := mustAD(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}))
	d := im.Table.DescriptorAt(big.Index)
	if d.DataLen != mem.MaxPart || d.AccessSlots != obj.MaxAccessSlots || d.Access().Len != mem.MaxPart {
		t.Fatalf("descriptor: data %d bytes, %d slots of %d bytes", d.DataLen, d.AccessSlots, d.Access().Len)
	}
	must(im.Table.WriteDWord(big, lastDWord, 0xfeedf00d))
	must(im.Table.StoreAD(big, lastSlot, leaf))
	if _, f := im.Table.LoadAD(big, obj.MaxAccessSlots); f == nil || f.Code != obj.FaultBounds {
		t.Fatalf("slot %d: %v, want a bounds fault", obj.MaxAccessSlots, f)
	}
	if _, f := im.Table.ReadDWord(big, mem.MaxPart-3); f == nil || f.Code != obj.FaultBounds {
		t.Fatalf("dword at %d: %v, want a bounds fault", mem.MaxPart-3, f)
	}
	check := func(step string, ad obj.AD) {
		t.Helper()
		if v, f := im.Table.ReadDWord(ad, lastDWord); f != nil || v != 0xfeedf00d {
			t.Fatalf("%s: last dword %#x (%v)", step, v, f)
		}
		if got, f := im.Table.LoadAD(ad, lastSlot); f != nil || !got.Valid() {
			t.Fatalf("%s: last slot %v (%v)", step, got, f)
		}
		audit.CheckWith(t, audit.New(im.System))
	}
	check("created", big)

	for !im.Table.DescriptorAt(big.Index).SwappedOut() {
		if _, ok, f := sw.EvictVictim(); f != nil || !ok {
			t.Fatalf("evict: %v %v", ok, f)
		}
	}
	audit.CheckWith(t, audit.New(im.System))
	must(sw.EnsureResident(big.Index))
	check("swapped out and in", big)

	must(im.SROs.Reclaim(filler.Index))
	before := im.Table.DescriptorAt(big.Index).Data()
	moved, _, f := sw.Compact()
	must(f)
	if after := im.Table.DescriptorAt(big.Index).Data(); moved == 0 || after.Base >= before.Base || after.Len != mem.MaxPart {
		t.Fatalf("compaction moved %d parts; data part %v, was %v", moved, after, before)
	}
	check("compacted", big)

	must(sw.EnsureResident(leaf.Index))
	tok, err := im.Files.Passivate(big)
	if err != nil {
		t.Fatal(err)
	}
	back, err := im.Files.Activate(tok, im.Heap)
	if err != nil {
		t.Fatal(err)
	}
	if bd := im.Table.DescriptorAt(back.Index); bd.DataLen != mem.MaxPart || bd.AccessSlots != obj.MaxAccessSlots {
		t.Fatalf("activated: data %d bytes, %d slots", bd.DataLen, bd.AccessSlots)
	}
	check("filed and activated", back)

	// Destruction frees both parts and credits their 128 KB back.
	must(im.SROs.Reclaim(back.Index))
	must(im.SROs.Reclaim(big.Index))
	audit.CheckWith(t, audit.New(im.System))
}
