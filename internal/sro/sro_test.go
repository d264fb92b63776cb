package sro

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/obj"
	"repro/internal/trace"
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

// TestLocalHeapRefusedWhole: a local heap is charged to its parent before
// it is created, so one the parent's claim or physical memory refuses
// leaves no object and no charge behind.
func TestLocalHeapRefusedWhole(t *testing.T) {
	for _, row := range []struct {
		name  string
		claim uint32 // the parent's; a local heap's SRO object costs 24
		full  bool   // physical memory filled first
		want  obj.FaultCode
	}{
		{"parent's claim", 30, false, obj.FaultStorageClaim},
		{"physical memory", 0, true, obj.FaultNoMemory},
	} {
		t.Run(row.name, func(t *testing.T) {
			tab := obj.NewTable(4 << 10)
			m := NewManager(tab)
			parent, f := m.NewGlobalHeap(row.claim)
			if f != nil {
				t.Fatal(f)
			}
			if _, f := m.NewLocalHeap(parent, 1, 0); f != nil {
				t.Fatal(f)
			}
			for row.full && f == nil {
				_, f = tab.Create(obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
			}
			live := tab.Live()
			_, used, allocs, f := m.Usage(parent)
			if f != nil {
				t.Fatal(f)
			}
			if _, f := m.NewLocalHeap(parent, 1, 0); !obj.IsFault(f, row.want) {
				t.Fatalf("local heap: %v, want %v", f, row.want)
			}
			if n := tab.Live(); n != live {
				t.Errorf("live objects %d after the refusal, want %d", n, live)
			}
			if _, u, a, _ := m.Usage(parent); u != used || a != allocs {
				t.Errorf("parent used %d, allocs %d after the refusal, want %d, %d", u, a, used, allocs)
			}
		})
	}
}

// TestCreateInMatchesCreate: a run of creates through one opened SRO leaves
// what the same run of Create calls leaves — the SRO's claim, used and
// allocs, every descriptor, and the trace — over a memory small enough
// that creates past its end are refused for want of memory, which latches
// nothing, so the smaller creates after them still succeed.
func TestCreateInMatchesCreate(t *testing.T) {
	type world struct {
		tab  *obj.Table
		log  *trace.Log
		m    *Manager
		heap obj.AD
		got  []string
	}
	newWorld := func() *world {
		w := &world{tab: obj.NewTable(16 << 10), log: trace.New(1 << 10)}
		w.tab.SetTracer(w.log)
		w.m = NewManager(w.tab)
		var f *obj.Fault
		if w.heap, f = w.m.NewGlobalHeap(0); f != nil {
			t.Fatal(f)
		}
		return w
	}
	each, in := newWorld(), newWorld()
	var sv obj.View
	in.m.Open(in.heap, &sv)
	refused := 0
	for i := uint32(0); i < 60; i++ {
		spec := obj.CreateSpec{Type: obj.TypeGeneric, DataLen: (i * 97) % 1500, AccessSlots: i % 5}
		ad, f := each.m.Create(each.heap, spec)
		each.got = append(each.got, fmt.Sprint(ad, f))
		ad, f = in.m.CreateIn(&sv, spec)
		in.got = append(in.got, fmt.Sprint(ad, f))
		if obj.IsFault(f, obj.FaultNoMemory) {
			refused++
		}
	}
	if refused == 0 || refused == 60 {
		t.Fatalf("%d of 60 creates refused for want of memory; the run must cross the memory's end", refused)
	}
	if sv.Fault() != nil {
		t.Fatalf("the opened SRO latched %v", sv.Fault())
	}
	for i := range each.got {
		if each.got[i] != in.got[i] {
			t.Fatalf("create %d: Create returned %s, CreateIn %s", i, each.got[i], in.got[i])
		}
	}
	c1, u1, a1, f1 := each.m.Usage(each.heap)
	c2, u2, a2, f2 := in.m.Usage(in.heap)
	if c1 != c2 || u1 != u2 || a1 != a2 || f1 != nil || f2 != nil {
		t.Fatalf("usage: Create %d/%d, %d allocs (%v); CreateIn %d/%d, %d allocs (%v)", u1, c1, a1, f1, u2, c2, a2, f2)
	}
	if each.tab.Len() != in.tab.Len() || each.tab.Live() != in.tab.Live() {
		t.Fatalf("table: %d slots, %d live; CreateIn %d, %d", each.tab.Len(), each.tab.Live(), in.tab.Len(), in.tab.Live())
	}
	for i := 1; i < each.tab.Len(); i++ {
		d, dn := each.tab.DescriptorAt(obj.Index(i)), in.tab.DescriptorAt(obj.Index(i))
		if (d == nil) != (dn == nil) || d != nil && *d != *dn {
			t.Fatalf("descriptor %d: Create %+v, CreateIn %+v", i, d, dn)
		}
	}
	var d1, d2 bytes.Buffer
	if err := each.log.Dump(&d1); err != nil {
		t.Fatal(err)
	}
	if err := in.log.Dump(&d2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1.Bytes(), d2.Bytes()) {
		t.Fatalf("traces differ:\n%s\nCreateIn:\n%s", d1.Bytes(), d2.Bytes())
	}
}

// TestCreateInLatchesRefusal: a refusal latched in the opened SRO — its
// storage claim, or the open itself — refuses every later create through
// it with that same fault, one the claim would have let through too, and
// charges nothing.
func TestCreateInLatchesRefusal(t *testing.T) {
	tab, m := setup(t)
	heap, _ := m.NewGlobalHeap(100)
	var sv obj.View
	m.Open(heap, &sv)
	if _, f := m.CreateIn(&sv, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 60}); f != nil {
		t.Fatal(f)
	}
	live := tab.Live()
	_, first := m.CreateIn(&sv, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 50})
	if !obj.IsFault(first, obj.FaultStorageClaim) || sv.Fault() != first {
		t.Fatalf("claim exceeded: %v, latched %v", first, sv.Fault())
	}
	for _, n := range []uint32{8, 0, 50} {
		if ad, f := m.CreateIn(&sv, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: n}); f != first || ad != obj.NilAD {
			t.Fatalf("a %d-byte create after the refusal: %v, %v; want the latched %v", n, ad, f, first)
		}
	}
	if _, used, allocs, _ := m.Usage(heap); used != 60 || allocs != 1 || tab.Live() != live {
		t.Fatalf("after the refusals: used %d, allocs %d, %d live; want 60, 1, %d", used, allocs, tab.Live(), live)
	}
	// A fresh open sees the claim as it stands: 8 bytes still fit.
	if _, f := m.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}); f != nil {
		t.Fatalf("an 8-byte create through a fresh open: %v", f)
	}

	var bad obj.View
	m.Open(obj.NilAD, &bad)
	if _, f := m.CreateIn(&bad, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}); f == nil || f != bad.Fault() {
		t.Fatalf("create through an open refused: %v, latched %v", f, bad.Fault())
	}
}

// TestCreateRefusalText pins the text of the two refusals a create meets in
// the SRO's own words: the storage claim, and an SRO capability without the
// write right, which cannot draw on the claim. Each leaves no object and no
// charge, for an object and for a local heap alike.
func TestCreateRefusalText(t *testing.T) {
	tab, m := setup(t)
	heap, _ := m.NewGlobalHeap(100)
	if _, f := m.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 60}); f != nil {
		t.Fatal(f)
	}
	local, f := m.NewLocalHeap(heap, 1, 0)
	if f != nil {
		t.Fatal(f)
	}
	_, used, allocs, _ := m.Usage(heap)
	live := tab.Live()
	for _, row := range []struct {
		name string
		do   func() *obj.Fault
		want string
	}{
		{"claim", func() *obj.Fault {
			_, f := m.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 50})
			return f
		}, "fault: storage claim exhausted on AD<1#1 rwd123>: claim 100 bytes, used 84, need 50 more"},
		{"no write right", func() *obj.Fault {
			_, f := m.Create(heap.Restrict(obj.RightWrite), obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
			return f
		}, "fault: insufficient rights on AD<1#1 rd123>: need w"},
		{"local heap, no write right", func() *obj.Fault {
			_, f := m.NewLocalHeap(local.Restrict(obj.RightWrite), 2, 0)
			return f
		}, "fault: insufficient rights on AD<3#1 rd123>: need w"},
	} {
		if f := row.do(); f == nil || f.Error() != row.want {
			t.Errorf("%s: %v, want %s", row.name, f, row.want)
		}
		if _, u, a, _ := m.Usage(heap); u != used || a != allocs || tab.Live() != live {
			t.Errorf("%s: used %d, allocs %d, %d live; want %d, %d, %d", row.name, u, a, tab.Live(), used, allocs, live)
		}
	}
}
