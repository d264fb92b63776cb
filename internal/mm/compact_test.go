package mm

import (
	"testing"

	"repro/internal/obj"
)

func TestCompactReducesFragmentation(t *testing.T) {
	tab, s := setup(t, 1<<20)
	alloc := NewSwapping(tab, s)
	heap, _ := alloc.NewHeap(0)
	// Build a checkerboard: allocate many objects, free alternates.
	var keep, free []obj.AD
	for i := 0; i < 64; i++ {
		ad, f := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4096})
		if f != nil {
			t.Fatal(f)
		}
		if i%2 == 0 {
			keep = append(keep, ad)
		} else {
			free = append(free, ad)
		}
	}
	for i, ad := range keep {
		if f := tab.WriteDWord(ad, 0, uint32(i)); f != nil {
			t.Fatal(f)
		}
	}
	for _, ad := range free {
		if f := s.Reclaim(ad.Index); f != nil {
			t.Fatal(f)
		}
	}
	fragBefore := tab.Memory().FragCount()
	largestBefore := tab.Memory().LargestFree()
	if fragBefore < 16 {
		t.Fatalf("checkerboard too coalesced to test: %d fragments", fragBefore)
	}
	moved, spent, f := alloc.Compact()
	if f != nil {
		t.Fatal(f)
	}
	if moved == 0 || spent == 0 {
		t.Fatalf("compaction did nothing: moved=%d spent=%v", moved, spent)
	}
	if got := tab.Memory().FragCount(); got >= fragBefore {
		t.Fatalf("fragments %d -> %d", fragBefore, got)
	}
	if got := tab.Memory().LargestFree(); got <= largestBefore {
		t.Fatalf("largest free %d -> %d", largestBefore, got)
	}
	// Every surviving capability still reads its contents: motion is
	// invisible through the descriptor indirection.
	for i, ad := range keep {
		v, f := tab.ReadDWord(ad, 0)
		if f != nil {
			t.Fatalf("object %d unreadable after compaction: %v", i, f)
		}
		if v != uint32(i) {
			t.Fatalf("object %d contents = %d after compaction", i, v)
		}
	}
}

func TestCompactEnablesLargeAllocation(t *testing.T) {
	// The point of compaction: an allocation larger than any free
	// fragment succeeds after compaction without evicting anything.
	tab, s := setup(t, 256*1024)
	alloc := NewSwapping(tab, s)
	heap, _ := alloc.NewHeap(0)
	var frees []obj.AD
	for i := 0; i < 30; i++ {
		ad, f := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8 * 1024})
		if f != nil {
			t.Fatal(f)
		}
		if i%2 == 1 {
			frees = append(frees, ad)
		}
	}
	for _, ad := range frees {
		if f := s.Reclaim(ad.Index); f != nil {
			t.Fatal(f)
		}
	}
	// ~120 KB free but in 8 KB holes: a 64 KB request cannot fit.
	if tab.Memory().LargestFree() >= 64*1024 {
		t.Skip("fragmentation pattern coalesced; nothing to prove")
	}
	if _, _, f := alloc.Compact(); f != nil {
		t.Fatal(f)
	}
	if tab.Memory().LargestFree() < 64*1024 {
		t.Fatalf("largest free after compaction = %d", tab.Memory().LargestFree())
	}
	if _, f := s.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64 * 1024}); f != nil {
		t.Fatalf("large allocation after compaction: %v", f)
	}
}

func TestCompactIdempotentWhenTight(t *testing.T) {
	tab, s := setup(t, 1<<20)
	alloc := NewSwapping(tab, s)
	heap, _ := alloc.NewHeap(0)
	for i := 0; i < 8; i++ {
		if _, f := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 1024}); f != nil {
			t.Fatal(f)
		}
	}
	if _, _, f := alloc.Compact(); f != nil {
		t.Fatal(f)
	}
	moved, _, f := alloc.Compact()
	if f != nil {
		t.Fatal(f)
	}
	if moved != 0 {
		t.Fatalf("second compaction moved %d segments", moved)
	}
}

// TestCompactSettledAllocFree holds the pass that finds memory settled to
// no host allocation: once warm, such a Compact beside a transient
// Alloc/Free pair (which leaves memory settled) allocates nothing, moves
// nothing, and counts the one pass over the resident set the walk would
// have made.
func TestCompactSettledAllocFree(t *testing.T) {
	tab, s := setup(t, 1<<20)
	alloc := NewSwapping(tab, s)
	heap, _ := alloc.NewHeap(0)
	for i := 0; i < 8; i++ {
		if _, f := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 1024}); f != nil {
			t.Fatal(f)
		}
	}
	phys := tab.Memory()
	alloc.Compact()
	if !phys.Settled() {
		t.Fatal("memory is not settled after a pass")
	}
	passes0, visits0, moves0 := alloc.Compactions, alloc.CompactVisits, alloc.CompactMoves
	allocs := testing.AllocsPerRun(100, func() {
		alloc.Compact()
		e, err := phys.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := phys.Free(e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a settled pass and a transient Alloc/Free make %.1f host allocations, want 0", allocs)
	}
	passes, visits, moves := alloc.Compactions-passes0, alloc.CompactVisits-visits0, alloc.CompactMoves-moves0
	if resident := uint64(tab.ResidentCount()); visits != passes*resident || moves != 0 {
		t.Errorf("%d settled passes visited %d descriptors and moved %d parts; want %d visits of %d resident, no move",
			passes, visits, moves, passes*resident, resident)
	}
}

func TestCompactSkipsSwappedObjects(t *testing.T) {
	tab, s := setup(t, 1<<20)
	alloc := NewSwapping(tab, s)
	heap, _ := alloc.NewHeap(0)
	a, _ := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4096})
	bAd, _ := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4096})
	if f := alloc.swapOut(bAd.Index); f != nil {
		t.Fatal(f)
	}
	if f := s.Reclaim(a.Index); f != nil {
		t.Fatal(f)
	}
	if _, _, f := alloc.Compact(); f != nil {
		t.Fatal(f)
	}
	// The swapped object must still swap back in cleanly.
	if f := alloc.EnsureResident(bAd.Index); f != nil {
		t.Fatal(f)
	}
	if _, f := tab.ReadDWord(bAd, 0); f != nil {
		t.Fatal(f)
	}
}
