package obj

import (
	"testing"
	"testing/quick"
)

func newTestTable(t *testing.T) *Table {
	t.Helper()
	return NewTable(1 << 20)
}

func mustCreate(t *testing.T, tab *Table, spec CreateSpec) AD {
	t.Helper()
	ad, f := tab.Create(spec)
	if f != nil {
		t.Fatalf("Create(%+v): %v", spec, f)
	}
	return ad
}

func TestADEncodeRoundTrip(t *testing.T) {
	f := func(idx uint32, gen uint32, rights uint8) bool {
		a := AD{Index: Index(idx), Gen: gen & adGenMask, Rights: Rights(rights) & RightsAll}
		if !a.Valid() {
			return DecodeAD(a.Encode()) == NilAD
		}
		return DecodeAD(a.Encode()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if DecodeAD(NilAD.Encode()) != NilAD {
		t.Error("nil AD does not round-trip")
	}
}

func TestRights(t *testing.T) {
	r := RightsAll
	if !r.Has(RightRead | RightT3) {
		t.Error("RightsAll missing rights")
	}
	r = r.Restrict(RightWrite | RightDelete)
	if r.Has(RightWrite) || r.Has(RightDelete) {
		t.Error("Restrict did not drop rights")
	}
	if !r.Has(RightRead) {
		t.Error("Restrict dropped unrelated rights")
	}
	if got := (RightRead | RightWrite).String(); got != "rw" {
		t.Errorf("String() = %q", got)
	}
	if RightsNone.String() != "-" {
		t.Errorf("RightsNone.String() = %q", RightsNone.String())
	}
}

func TestCreateAndAccess(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 64, AccessSlots: 4})
	if tab.Live() != 1 {
		t.Fatalf("Live = %d", tab.Live())
	}
	if f := tab.WriteDWord(ad, 0, 1234); f != nil {
		t.Fatal(f)
	}
	v, f := tab.ReadDWord(ad, 0)
	if f != nil {
		t.Fatal(f)
	}
	if v != 1234 {
		t.Fatalf("ReadDWord = %d", v)
	}
	typ, f := tab.TypeOf(ad)
	if f != nil || typ != TypeGeneric {
		t.Fatalf("TypeOf = %v, %v", typ, f)
	}
}

func TestRightsEnforced(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 16})
	ro := ad.Restrict(RightWrite | RightDelete)
	if f := tab.WriteByteAt(ro, 0, 1); !IsFault(f, FaultRights) {
		t.Errorf("write via read-only AD: %v", f)
	}
	if _, f := tab.ReadByteAt(ro, 0); f != nil {
		t.Errorf("read via read-only AD: %v", f)
	}
	if f := tab.Destroy(ro); !IsFault(f, FaultRights) {
		t.Errorf("destroy without Delete right: %v", f)
	}
	wo := ad.Restrict(RightRead)
	if _, f := tab.ReadByteAt(wo, 0); !IsFault(f, FaultRights) {
		t.Errorf("read via write-only AD: %v", f)
	}
}

func TestBoundsEnforced(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8, AccessSlots: 2})
	if _, f := tab.ReadByteAt(ad, 8); !IsFault(f, FaultBounds) {
		t.Errorf("read past data part: %v", f)
	}
	if f := tab.WriteDWord(ad, 6, 0); !IsFault(f, FaultBounds) {
		t.Errorf("write straddling end: %v", f)
	}
	if _, f := tab.LoadAD(ad, 2); !IsFault(f, FaultBounds) {
		t.Errorf("load past access part: %v", f)
	}
	if f := tab.StoreAD(ad, 2, NilAD); !IsFault(f, FaultBounds) {
		t.Errorf("store past access part: %v", f)
	}
}

func TestDanglingCapabilityDetected(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8})
	if f := tab.Destroy(ad); f != nil {
		t.Fatal(f)
	}
	if _, f := tab.ReadByteAt(ad, 0); !IsFault(f, FaultInvalidAD) {
		t.Errorf("use after destroy: %v", f)
	}
	// Slot reuse must not resurrect the old capability.
	ad2 := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8})
	if ad2.Index != ad.Index {
		t.Fatalf("expected slot reuse (got %d, want %d)", ad2.Index, ad.Index)
	}
	if _, f := tab.ReadByteAt(ad, 0); !IsFault(f, FaultInvalidAD) {
		t.Errorf("stale AD aliased a new object: %v", f)
	}
	if _, f := tab.ReadByteAt(ad2, 0); f != nil {
		t.Errorf("fresh AD rejected: %v", f)
	}
}

func TestStoreLoadAD(t *testing.T) {
	tab := newTestTable(t)
	dir := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, AccessSlots: 4})
	leaf := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8})
	if f := tab.StoreAD(dir, 1, leaf); f != nil {
		t.Fatal(f)
	}
	got, f := tab.LoadAD(dir, 1)
	if f != nil {
		t.Fatal(f)
	}
	if got != leaf {
		t.Fatalf("LoadAD = %v, want %v", got, leaf)
	}
	// Empty slots read as nil.
	got, f = tab.LoadAD(dir, 0)
	if f != nil || got.Valid() {
		t.Fatalf("empty slot = %v, %v", got, f)
	}
	// Clearing a slot.
	if f := tab.StoreAD(dir, 1, NilAD); f != nil {
		t.Fatal(f)
	}
	if got, _ := tab.LoadAD(dir, 1); got.Valid() {
		t.Fatal("slot not cleared")
	}
}

func TestMoveADRestrictsRights(t *testing.T) {
	tab := newTestTable(t)
	dir := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, AccessSlots: 1})
	leaf := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8})
	if f := tab.StoreAD(dir, 0, leaf.Restrict(RightWrite|RightDelete)); f != nil {
		t.Fatal(f)
	}
	got, _ := tab.LoadAD(dir, 0)
	if got.Rights.Has(RightWrite) || got.Rights.Has(RightDelete) {
		t.Fatalf("rights not restricted on copy: %v", got.Rights)
	}
	if !got.Rights.Has(RightRead) {
		t.Fatalf("unrelated right dropped: %v", got.Rights)
	}
}

func TestLevelRuleEnforced(t *testing.T) {
	// §5: "an access for an object may never be stored into an object
	// with a lower (more global) level number."
	tab := newTestTable(t)
	global := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 0, AccessSlots: 2})
	local := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 5, AccessSlots: 2})

	// Storing a global reference into a local object is fine.
	if f := tab.StoreAD(local, 0, global); f != nil {
		t.Errorf("global into local: %v", f)
	}
	// Storing a local reference into a global object must fault: the
	// reference would dangle when the local heap is destroyed.
	if f := tab.StoreAD(global, 0, local); !IsFault(f, FaultLevel) {
		t.Errorf("local into global: %v, want level fault", f)
	}
	// Same level is fine.
	local2 := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 5, AccessSlots: 1})
	if f := tab.StoreAD(local, 1, local2); f != nil {
		t.Errorf("same level: %v", f)
	}
}

func TestGrayBitOnADMove(t *testing.T) {
	// §8.1: "the 432 hardware implements the gray bit of that algorithm,
	// setting it whenever access descriptors are moved."
	tab := newTestTable(t)
	dir := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, AccessSlots: 1})
	leaf := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8})
	// Simulate a collector mid-cycle: everything white.
	tab.SetColor(dir.Index, White)
	tab.SetColor(leaf.Index, White)
	if f := tab.StoreAD(dir, 0, leaf); f != nil {
		t.Fatal(f)
	}
	if c, _ := tab.ColorOf(leaf.Index); c != Gray {
		t.Fatalf("moved AD's referent is %v, want gray", c)
	}
	// The container is not shaded — only the moved capability's target.
	if c, _ := tab.ColorOf(dir.Index); c != White {
		t.Fatalf("container is %v, want white", c)
	}
	// A black referent stays black (no downgrade).
	tab.SetColor(leaf.Index, Black)
	if f := tab.StoreAD(dir, 0, leaf); f != nil {
		t.Fatal(f)
	}
	if c, _ := tab.ColorOf(leaf.Index); c != Black {
		t.Fatalf("black referent downgraded to %v", c)
	}
}

func TestNewObjectsBornGray(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8})
	if c, ok := tab.ColorOf(ad.Index); !ok || c != Gray {
		t.Fatalf("newborn colour = %v, want gray", c)
	}
}

func TestRequireType(t *testing.T) {
	tab := newTestTable(t)
	p := mustCreate(t, tab, CreateSpec{Type: TypePort, DataLen: 16, AccessSlots: 4})
	if _, f := tab.RequireType(p, TypePort); f != nil {
		t.Errorf("RequireType(port): %v", f)
	}
	if _, f := tab.RequireType(p, TypeProcess); !IsFault(f, FaultType) {
		t.Errorf("RequireType(process) on port: %v", f)
	}
}

func TestCreateLimits(t *testing.T) {
	tab := newTestTable(t)
	if _, f := tab.Create(CreateSpec{Type: TypeGeneric, DataLen: 65 * 1024}); !IsFault(f, FaultBounds) {
		t.Errorf("data part > 64KB: %v", f)
	}
	if _, f := tab.Create(CreateSpec{Type: TypeInvalid}); !IsFault(f, FaultType) {
		t.Errorf("invalid type: %v", f)
	}
	small := NewTable(64)
	if _, f := small.Create(CreateSpec{Type: TypeGeneric, DataLen: 4096}); !IsFault(f, FaultNoMemory) {
		t.Errorf("exhausted memory: %v", f)
	}
}

func TestCreateRollsBackOnAccessPartFailure(t *testing.T) {
	// If the data part allocates but the access part cannot, the data
	// part must be returned — no storage leak.
	tab := NewTable(1024)
	used := tab.Memory().Used()
	if _, f := tab.Create(CreateSpec{Type: TypeGeneric, DataLen: 512, AccessSlots: 4096}); f == nil {
		t.Fatal("expected failure")
	}
	if tab.Memory().Used() != used {
		t.Fatalf("leaked %d bytes", tab.Memory().Used()-used)
	}
}

func TestReferents(t *testing.T) {
	tab := newTestTable(t)
	dir := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, AccessSlots: 4})
	a := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 4})
	b := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 4})
	if f := tab.StoreAD(dir, 0, a); f != nil {
		t.Fatal(f)
	}
	if f := tab.StoreAD(dir, 3, b); f != nil {
		t.Fatal(f)
	}
	var got []Index
	if f := tab.Referents(dir.Index, func(ad AD) { got = append(got, ad.Index) }); f != nil {
		t.Fatal(f)
	}
	if len(got) != 2 || got[0] != a.Index || got[1] != b.Index {
		t.Fatalf("Referents = %v", got)
	}
	// A dangling entry is skipped, not reported.
	if f := tab.Destroy(a); f != nil {
		t.Fatal(f)
	}
	got = got[:0]
	if f := tab.Referents(dir.Index, func(ad AD) { got = append(got, ad.Index) }); f != nil {
		t.Fatal(f)
	}
	if len(got) != 1 || got[0] != b.Index {
		t.Fatalf("Referents after destroy = %v", got)
	}
}

func TestAliveBySRO(t *testing.T) {
	tab := newTestTable(t)
	sro := mustCreate(t, tab, CreateSpec{Type: TypeSRO, DataLen: 32})
	for i := 0; i < 3; i++ {
		mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 4, SRO: sro.Index})
	}
	mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 4}) // different SRO
	var n int
	tab.AliveBySRO(sro.Index, func(Index) { n++ })
	if n != 3 {
		t.Fatalf("AliveBySRO found %d, want 3", n)
	}
}

func TestSwapOutIn(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 64})
	if f := tab.WriteBytes(ad, 0, []byte("resident")); f != nil {
		t.Fatal(f)
	}
	before := tab.Memory().Used()
	if f := tab.SwapOut(ad.Index, 42); f != nil {
		t.Fatal(f)
	}
	if tab.Memory().Used() >= before {
		t.Fatal("swap-out did not release physical memory")
	}
	// Access now faults with segment-moved, for the memory manager.
	if _, f := tab.ReadByteAt(ad, 0); !IsFault(f, FaultSegmentMoved) {
		t.Fatalf("access to swapped object: %v", f)
	}
	// Double swap-out is rejected.
	if f := tab.SwapOut(ad.Index, 43); !IsFault(f, FaultSegmentMoved) {
		t.Fatalf("double swap-out: %v", f)
	}
	data, _, f := tab.SwapIn(ad.Index)
	if f != nil {
		t.Fatal(f)
	}
	if data.Len != 64 {
		t.Fatalf("swap-in extent len = %d", data.Len)
	}
	// Resident again (contents restoration is the manager's job).
	if _, f := tab.ReadByteAt(ad, 0); f != nil {
		t.Fatalf("access after swap-in: %v", f)
	}
}

func TestPinnedNotSwappable(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeProcessor, DataLen: 16, Pinned: true})
	if f := tab.SwapOut(ad.Index, 1); !IsFault(f, FaultOddity) {
		t.Fatalf("swapping a pinned object: %v", f)
	}
	if !tab.IsPinned(ad.Index) {
		t.Fatal("IsPinned = false")
	}
}

func TestDestroySwappedObject(t *testing.T) {
	// Destroying a swapped-out object must not free physical memory it
	// does not hold.
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 64})
	if f := tab.SwapOut(ad.Index, 7); f != nil {
		t.Fatal(f)
	}
	if f := tab.Destroy(ad); f != nil {
		t.Fatal(f)
	}
	if tab.Live() != 0 {
		t.Fatalf("Live = %d", tab.Live())
	}
}

// TestNoStorageLeak property-checks that creating and destroying arbitrary
// objects returns the memory to exactly its initial occupancy.
func TestNoStorageLeak(t *testing.T) {
	f := func(sizes []uint16) bool {
		tab := NewTable(1 << 20)
		base := tab.Memory().Used()
		var ads []AD
		for _, s := range sizes {
			ad, f := tab.Create(CreateSpec{
				Type:        TypeGeneric,
				DataLen:     uint32(s % 4096),
				AccessSlots: uint32(s % 16),
			})
			if f != nil {
				continue
			}
			ads = append(ads, ad)
		}
		for _, ad := range ads {
			if f := tab.Destroy(ad); f != nil {
				return false
			}
		}
		return tab.Memory().Used() == base && tab.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTypeString(t *testing.T) {
	if TypePort.String() != "port" || Type(99).String() != "type(99)" {
		t.Error("Type.String broken")
	}
	if White.String() != "white" || Gray.String() != "gray" || Black.String() != "black" {
		t.Error("Color.String broken")
	}
}

func TestFaultHelpers(t *testing.T) {
	f := Faultf(FaultRights, NilAD, "need %s", RightRead)
	if !IsFault(f, FaultRights) || IsFault(f, FaultLevel) || IsFault(nil, FaultRights) {
		t.Error("IsFault broken")
	}
	if AsFault(f) != f || AsFault(nil) != nil {
		t.Error("AsFault broken")
	}
	if f.Error() == "" || FaultCode(200).String() == "" {
		t.Error("fault strings empty")
	}
}

// TestResidentSet walks the resident set across its word boundaries: the
// bit of a slot is set exactly while its descriptor is valid and swapped
// in, whichever of Create, Destroy, SwapOut and SwapIn wrote it last, and
// NextResident visits the set bits in table order.
func TestResidentSet(t *testing.T) {
	tab := NewTable(1 << 16)
	var ads []AD
	for i := 0; i < 200; i++ {
		ads = append(ads, mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8}))
	}
	want := func() (in []Index) {
		for i := 1; i < tab.Len(); i++ {
			if d := tab.DescriptorAt(Index(i)); d != nil && !d.SwappedOut() {
				in = append(in, Index(i))
			}
		}
		return in
	}
	check := func(when string) {
		t.Helper()
		in := want()
		walk := NilIndex
		for _, idx := range in {
			if walk = tab.NextResident(walk); walk != idx {
				t.Fatalf("%s: walk reached %d, want %d", when, walk, idx)
			}
			if !tab.Resident(idx) {
				t.Fatalf("%s: Resident(%d) = false", when, idx)
			}
		}
		if next := tab.NextResident(walk); next != NilIndex {
			t.Fatalf("%s: walk went on to %d past the last resident", when, next)
		}
	}
	check("after create")
	for i, ad := range ads {
		switch {
		case i%3 == 0:
			if f := tab.SwapOut(ad.Index, uint64(i+1)); f != nil {
				t.Fatal(f)
			}
		case i%7 == 0 || i >= 60 && i < 130: // two whole words go empty
			if f := tab.Destroy(ad); f != nil {
				t.Fatal(f)
			}
		}
	}
	check("after swap-out and destroy")
	if tab.Resident(ads[0].Index) || tab.Resident(ads[7].Index) || tab.Resident(Index(tab.Len()+64)) {
		t.Fatal("a swapped-out, a destroyed or an unallocated slot reads as resident")
	}
	for i, ad := range ads {
		if i%6 == 0 {
			if _, _, f := tab.SwapIn(ad.Index); f != nil {
				t.Fatal(f)
			}
		}
	}
	mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8}) // reuses a freed slot
	check("after swap-in and slot reuse")
	if f := tab.Destroy(ads[3]); f != nil { // destroyed while swapped out
		t.Fatal(f)
	}
	check("after destroying a swapped-out object")
}

// TestSideGenerationGuard: a side-table entry answers for the object it was
// put under and for nothing else — not for an empty slot, not after the
// object dies, not for the next object in the slot until that one has an
// entry of its own — and the table is no longer than the slots it covers.
func TestSideGenerationGuard(t *testing.T) {
	tab := newTestTable(t)
	side := NewSide[int](tab)
	if _, ok := side.Get(NilIndex); ok {
		t.Error("the nil index has an entry")
	}
	var ads []AD
	for i := 0; i < 100; i++ {
		ads = append(ads, mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 4}))
	}
	if _, ok := side.Get(ads[99].Index); ok {
		t.Error("an entry before any Put")
	}
	side.Put(ads[70].Index, 70) // grows past every lower index
	side.Put(ads[3].Index, 3)
	for i, a := range ads {
		v, ok := side.Get(a.Index)
		if want := i == 70 || i == 3; ok != want || ok && v != i {
			t.Errorf("object %d: Get = (%d, %v)", i, v, ok)
		}
	}
	if len(side.entries) > tab.Len() {
		t.Errorf("%d entries for a table of %d slots", len(side.entries), tab.Len())
	}
	if f := tab.DestroyIndex(ads[70].Index); f != nil {
		t.Fatal(f)
	}
	if _, ok := side.Get(ads[70].Index); ok {
		t.Error("a destroyed object still has its entry")
	}
	side.Put(ads[70].Index, -1) // nothing lives there: recorded for no one
	next := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 4})
	if next.Index != ads[70].Index {
		t.Fatalf("slot %d was not reused (got %d); the test is vacuous", ads[70].Index, next.Index)
	}
	if v, ok := side.Get(next.Index); ok {
		t.Errorf("the slot's next object reads its predecessor's entry %d", v)
	}
	side.Put(next.Index, 71)
	if v, ok := side.Get(next.Index); !ok || v != 71 {
		t.Errorf("after Put: Get = (%d, %v)", v, ok)
	}
	if _, ok := side.Get(Index(tab.Len() + 5)); ok {
		t.Error("an index past the table has an entry")
	}
}

// TestReserve: after Reserve(n), the next n creates grow neither the
// descriptor array nor the resident set, and a side table that reserved n
// grows for none of their entries. Reserving changes nothing else: the
// table assigns the indices and generations of a twin that never reserved,
// a freed slot first.
func TestReserve(t *testing.T) {
	const n = 3000 // past the room a table is born with
	tab, twin := newTestTable(t), newTestTable(t)
	for _, tb := range []*Table{tab, twin} {
		gone := mustCreate(t, tb, CreateSpec{Type: TypeGeneric, DataLen: 4})
		mustCreate(t, tb, CreateSpec{Type: TypeGeneric, DataLen: 4})
		if f := tb.Destroy(gone); f != nil {
			t.Fatal(f)
		}
	}
	tab.Reserve(n)
	side := NewSide[int](tab)
	side.Reserve(n)
	descs, resident, entries := &tab.descs[0], &tab.resident[0], &side.entries[0]
	capDescs, capResident, capEntries := cap(tab.descs), cap(tab.resident), cap(side.entries)
	if capDescs < tab.Len()+n || tab.Cap() != capDescs {
		t.Fatalf("Reserve(%d) on %d descriptors left room for %d (Cap %d)", n, tab.Len(), capDescs, tab.Cap())
	}
	ads := make([]AD, n)
	for i := range ads {
		spec := CreateSpec{Type: TypeGeneric, DataLen: 4, AccessSlots: uint32(i % 3)}
		ads[i] = mustCreate(t, tab, spec)
		if want := mustCreate(t, twin, spec); ads[i] != want {
			t.Fatalf("create %d: %v, the twin that never reserved %v", i, ads[i], want)
		}
		side.Put(ads[i].Index, i)
	}
	if ads[0].Index != 1 || ads[0].Gen != 2 {
		t.Fatalf("the first create after Reserve took %v, not the freed slot 1", ads[0])
	}
	if &tab.descs[0] != descs || cap(tab.descs) != capDescs {
		t.Error("the descriptor array grew")
	}
	if &tab.resident[0] != resident || cap(tab.resident) != capResident {
		t.Error("the resident set grew")
	}
	if &side.entries[0] != entries || cap(side.entries) != capEntries {
		t.Error("the side table grew")
	}
	if tab.ResidentCount() != twin.ResidentCount() || tab.Len() != twin.Len() {
		t.Errorf("%d resident of %d slots, the twin %d of %d", tab.ResidentCount(), tab.Len(), twin.ResidentCount(), twin.Len())
	}
	for i, ad := range ads {
		if v, ok := side.Get(ad.Index); !ok || v != i {
			t.Fatalf("object %d: side entry (%d, %v)", i, v, ok)
		}
	}
}
