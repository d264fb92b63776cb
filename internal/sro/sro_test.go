package sro

import (
	"testing"
	"testing/quick"

	"repro/internal/obj"
)

func setup(t *testing.T) (*obj.Table, *Manager) {
	t.Helper()
	tab := obj.NewTable(1 << 20)
	return tab, NewManager(tab)
}

func TestGlobalHeapCreatesLevelZero(t *testing.T) {
	tab, m := setup(t)
	heap, f := m.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	ad, f := m.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 32})
	if f != nil {
		t.Fatal(f)
	}
	lvl, f := tab.LevelOf(ad)
	if f != nil || lvl != obj.LevelGlobal {
		t.Fatalf("level = %d, %v", lvl, f)
	}
	d := tab.DescriptorAt(ad.Index)
	if d.SRO != heap.Index {
		t.Fatalf("ancestral SRO = %d, want %d", d.SRO, heap.Index)
	}
}

func TestLocalHeapLevels(t *testing.T) {
	tab, m := setup(t)
	global, _ := m.NewGlobalHeap(0)
	local, f := m.NewLocalHeap(global, 3, 0)
	if f != nil {
		t.Fatal(f)
	}
	if lvl, _ := m.Level(local); lvl != 3 {
		t.Fatalf("local heap level = %d", lvl)
	}
	ad, f := m.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	if lvl, _ := tab.LevelOf(ad); lvl != 3 {
		t.Fatalf("object level = %d", lvl)
	}
	// The level rule now protects the heap: a local object cannot be
	// stored into a global container.
	dir, _ := m.Create(global, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 1})
	if f := tab.StoreAD(dir, 0, ad); !obj.IsFault(f, obj.FaultLevel) {
		t.Fatalf("local escaped into global container: %v", f)
	}
}

func TestLocalHeapBelowParentRejected(t *testing.T) {
	_, m := setup(t)
	global, _ := m.NewGlobalHeap(0)
	deep, _ := m.NewLocalHeap(global, 5, 0)
	if _, f := m.NewLocalHeap(deep, 2, 0); !obj.IsFault(f, obj.FaultLevel) {
		t.Fatalf("child heap at shallower level: %v", f)
	}
}

func TestAllocateRightRequired(t *testing.T) {
	_, m := setup(t)
	heap, _ := m.NewGlobalHeap(0)
	weak := heap.Restrict(RightAllocate)
	if _, f := m.Create(weak, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4}); !obj.IsFault(f, obj.FaultRights) {
		t.Fatalf("create without allocate right: %v", f)
	}
	if _, f := m.NewLocalHeap(weak, 1, 0); !obj.IsFault(f, obj.FaultRights) {
		t.Fatalf("local heap without allocate right: %v", f)
	}
}

func TestStorageClaim(t *testing.T) {
	_, m := setup(t)
	heap, _ := m.NewGlobalHeap(100)
	if _, f := m.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 60}); f != nil {
		t.Fatal(f)
	}
	// 60 of 100 used: a 50-byte object must be refused by the claim,
	// not by physical memory.
	if _, f := m.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 50}); !obj.IsFault(f, obj.FaultStorageClaim) {
		t.Fatalf("claim exceeded: %v", f)
	}
	claim, used, allocs, f := m.Usage(heap)
	if f != nil {
		t.Fatal(f)
	}
	if claim != 100 || used != 60 || allocs != 1 {
		t.Fatalf("Usage = %d/%d, %d allocs", used, claim, allocs)
	}
}

func TestReclaimCreditsClaim(t *testing.T) {
	_, m := setup(t)
	heap, _ := m.NewGlobalHeap(100)
	ad, _ := m.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 80})
	if f := m.Reclaim(ad.Index); f != nil {
		t.Fatal(f)
	}
	_, used, _, _ := m.Usage(heap)
	if used != 0 {
		t.Fatalf("used = %d after reclaim", used)
	}
	// Claim is free again.
	if _, f := m.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 80}); f != nil {
		t.Fatalf("create after reclaim: %v", f)
	}
}

func TestAccessSlotsChargedToClaim(t *testing.T) {
	_, m := setup(t)
	heap, _ := m.NewGlobalHeap(64)
	// 8 slots × 8 bytes = 64 bytes: exactly fills the claim.
	if _, f := m.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 8}); f != nil {
		t.Fatal(f)
	}
	if _, f := m.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 1}); !obj.IsFault(f, obj.FaultStorageClaim) {
		t.Fatalf("claim should be exhausted: %v", f)
	}
}

func TestDestroyHeapBulk(t *testing.T) {
	tab, m := setup(t)
	global, _ := m.NewGlobalHeap(0)
	local, _ := m.NewLocalHeap(global, 2, 0)
	var ads []obj.AD
	for i := 0; i < 10; i++ {
		ad, f := m.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
		if f != nil {
			t.Fatal(f)
		}
		ads = append(ads, ad)
	}
	before := tab.Live()
	n, f := m.DestroyHeap(local)
	if f != nil {
		t.Fatal(f)
	}
	if n != 10 {
		t.Fatalf("destroyed %d, want 10", n)
	}
	if tab.Live() != before-11 { // 10 objects + the SRO itself
		t.Fatalf("Live = %d, want %d", tab.Live(), before-11)
	}
	for _, ad := range ads {
		if _, f := tab.ReadByteAt(ad, 0); !obj.IsFault(f, obj.FaultInvalidAD) {
			t.Fatalf("object survived heap destruction: %v", f)
		}
	}
}

func TestDestroyHeapRecursesIntoChildHeaps(t *testing.T) {
	tab, m := setup(t)
	global, _ := m.NewGlobalHeap(0)
	l1, _ := m.NewLocalHeap(global, 1, 0)
	l2, _ := m.NewLocalHeap(l1, 2, 0)
	for i := 0; i < 3; i++ {
		if _, f := m.Create(l2, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4}); f != nil {
			t.Fatal(f)
		}
	}
	n, f := m.DestroyHeap(l1)
	if f != nil {
		t.Fatal(f)
	}
	// l2 itself plus its 3 objects.
	if n != 4 {
		t.Fatalf("destroyed %d, want 4", n)
	}
	if _, f := tab.ReadDWord(l2, offLevel); !obj.IsFault(f, obj.FaultInvalidAD) {
		t.Fatal("child SRO survived")
	}
}

func TestDestroyHeapCreditsParent(t *testing.T) {
	_, m := setup(t)
	global, _ := m.NewGlobalHeap(1000)
	local, _ := m.NewLocalHeap(global, 1, 0)
	_, usedAfterChild, _, _ := m.Usage(global)
	if usedAfterChild == 0 {
		t.Fatal("child SRO not charged to parent")
	}
	if _, f := m.DestroyHeap(local); f != nil {
		t.Fatal(f)
	}
	_, used, _, _ := m.Usage(global)
	if used != 0 {
		t.Fatalf("parent used = %d after child heap destroyed", used)
	}
}

func TestParent(t *testing.T) {
	_, m := setup(t)
	global, _ := m.NewGlobalHeap(0)
	local, _ := m.NewLocalHeap(global, 1, 0)
	p, f := m.Parent(local)
	if f != nil || p.Index != global.Index {
		t.Fatalf("Parent = %v, %v", p, f)
	}
	p, f = m.Parent(global)
	if f != nil || p.Valid() {
		t.Fatalf("root Parent = %v, %v", p, f)
	}
}

func TestCreateOnNonSRO(t *testing.T) {
	tab, m := setup(t)
	notSRO, _ := tab.Create(obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
	if _, f := m.Create(notSRO, obj.CreateSpec{Type: obj.TypeGeneric}); !obj.IsFault(f, obj.FaultType) {
		t.Fatalf("create from non-SRO: %v", f)
	}
}

// TestClaimConservation property-checks that any interleaving of creates
// and reclaims leaves the SRO's used counter equal to the footprints of
// the objects still alive.
func TestClaimConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		tab := obj.NewTable(1 << 20)
		m := NewManager(tab)
		heap, _ := m.NewGlobalHeap(0)
		liveBytes := uint32(0)
		type rec struct {
			idx  obj.Index
			size uint32
		}
		var live []rec
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 {
				r := live[len(live)-1]
				live = live[:len(live)-1]
				if m.Reclaim(r.idx) != nil {
					return false
				}
				liveBytes -= r.size
				continue
			}
			size := uint32(op%512) + 1
			ad, f := m.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: size})
			if f != nil {
				continue
			}
			live = append(live, rec{ad.Index, size})
			liveBytes += size
		}
		_, used, _, _ := m.Usage(heap)
		return used == liveBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
