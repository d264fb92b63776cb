package obj

import (
	"math"
	"testing"
)

// Coverage for accessors exercised mainly by other packages, plus their
// refusal paths: the checked byte/word/dword/bytes accessors, the system
// AD store, and the table inspection helpers.

func TestDataAccessorsRoundTrip(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 32})
	if f := tab.WriteByteAt(ad, 1, 0xAB); f != nil {
		t.Fatal(f)
	}
	if v, _ := tab.ReadByteAt(ad, 1); v != 0xAB {
		t.Fatalf("byte = %#x", v)
	}
	if f := tab.WriteDWord(ad, 4, 0xDEADBEEF); f != nil {
		t.Fatal(f)
	}
	if v, _ := tab.ReadDWord(ad, 4); v != 0xDEADBEEF {
		t.Fatalf("dword = %#x", v)
	}
	if f := tab.WriteBytes(ad, 8, []byte("bulk")); f != nil {
		t.Fatal(f)
	}
	p, f := tab.ReadBytes(ad, 8, 4)
	if f != nil || string(p) != "bulk" {
		t.Fatalf("bytes = %q, %v", p, f)
	}
}

func TestDataAccessorsRefusals(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8})
	ro := ad.Restrict(RightWrite)
	wo := ad.Restrict(RightRead)
	if f := tab.WriteDWord(ro, 0, 1); !IsFault(f, FaultRights) {
		t.Errorf("WriteDWord read-only: %v", f)
	}
	if _, f := tab.ReadDWord(wo, 0); !IsFault(f, FaultRights) {
		t.Errorf("ReadDWord write-only: %v", f)
	}
	if f := tab.WriteBytes(ro, 0, []byte{1}); !IsFault(f, FaultRights) {
		t.Errorf("WriteBytes read-only: %v", f)
	}
	if _, f := tab.ReadBytes(wo, 0, 1); !IsFault(f, FaultRights) {
		t.Errorf("ReadBytes write-only: %v", f)
	}
	if _, f := tab.ReadBytes(ad, 5, 10); !IsFault(f, FaultBounds) {
		t.Errorf("ReadBytes out of bounds: %v", f)
	}
	if f := tab.WriteBytes(ad, 5, make([]byte, 10)); !IsFault(f, FaultBounds) {
		t.Errorf("WriteBytes out of bounds: %v", f)
	}
}

func TestStoreADSystemBypassesLevelOnly(t *testing.T) {
	tab := newTestTable(t)
	global := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 0, AccessSlots: 2})
	local := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 5, DataLen: 4})
	// The level rule would forbid this store; the system path permits
	// it (hardware queues), while still shading for the collector.
	tab.SetColor(local.Index, White)
	if f := tab.StoreADSystem(global, 0, local); f != nil {
		t.Fatalf("system store refused: %v", f)
	}
	if c, _ := tab.ColorOf(local.Index); c != Gray {
		t.Fatalf("system store did not shade: %v", c)
	}
	// Bounds and rights still enforced.
	if f := tab.StoreADSystem(global, 9, local); !IsFault(f, FaultBounds) {
		t.Errorf("system store out of bounds: %v", f)
	}
	ro := global.Restrict(RightWrite)
	if f := tab.StoreADSystem(ro, 0, local); !IsFault(f, FaultRights) {
		t.Errorf("system store without write right: %v", f)
	}
	// And dangling sources are rejected.
	doomed := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 4})
	if f := tab.Destroy(doomed); f != nil {
		t.Fatal(f)
	}
	if f := tab.StoreADSystem(global, 1, doomed); !IsFault(f, FaultInvalidAD) {
		t.Errorf("system store of dangling AD: %v", f)
	}
}

func TestTableInspectionHelpers(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 3, DataLen: 4})
	if tab.Len() < 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	created, destroyed, stores, grayings := tab.Stats()
	if created == 0 {
		t.Fatalf("Stats = %d %d %d %d", created, destroyed, stores, grayings)
	}
	if lvl, f := tab.LevelOf(ad); f != nil || lvl != 3 {
		t.Fatalf("LevelOf = %d, %v", lvl, f)
	}
	if ut, f := tab.UserTypeOf(ad); f != nil || ut != NilIndex {
		t.Fatalf("UserTypeOf = %d, %v", ut, f)
	}
	if f := tab.Pin(ad); f != nil {
		t.Fatal(f)
	}
	if !tab.IsPinned(ad.Index) {
		t.Fatal("Pin did not stick")
	}
	if f := tab.DestroyIndex(ad.Index); f != nil {
		t.Fatal(f)
	}
	if f := tab.DestroyIndex(ad.Index); !IsFault(f, FaultInvalidAD) {
		t.Fatalf("double DestroyIndex: %v", f)
	}
	if f := tab.DestroyIndex(NilIndex); !IsFault(f, FaultInvalidAD) {
		t.Fatalf("DestroyIndex(nil): %v", f)
	}
	if _, f := tab.LevelOf(ad); !IsFault(f, FaultInvalidAD) {
		t.Fatalf("LevelOf dangling: %v", f)
	}
	if _, f := tab.UserTypeOf(ad); !IsFault(f, FaultInvalidAD) {
		t.Fatalf("UserTypeOf dangling: %v", f)
	}
}

func TestWithRightsAndStrings(t *testing.T) {
	tab := newTestTable(t)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 4})
	weak := ad.WithRights(RightRead)
	if weak.Rights != RightRead {
		t.Fatalf("WithRights = %v", weak.Rights)
	}
	if weak.String() == "" || NilAD.String() != "AD<nil>" {
		t.Error("AD strings broken")
	}
	f := Faultf(FaultRights, ad, "")
	f.Detail = ""
	if f.Error() == "" {
		t.Error("fault without detail renders empty")
	}
}

func TestSwapInFailureModes(t *testing.T) {
	tab := NewTable(600)
	a, f := tab.Create(CreateSpec{Type: TypeGeneric, DataLen: 256})
	if f != nil {
		t.Fatal(f)
	}
	if _, _, f := tab.SwapIn(a.Index); !IsFault(f, FaultOddity) {
		t.Fatalf("SwapIn of resident object: %v", f)
	}
	if f := tab.SwapOut(a.Index, 1, math.MaxUint32, math.MaxUint32); f != nil {
		t.Fatal(f)
	}
	// Fill memory so the swap-in cannot find room.
	if _, f := tab.Create(CreateSpec{Type: TypeGeneric, DataLen: 500}); f != nil {
		t.Fatal(f)
	}
	if _, _, f := tab.SwapIn(a.Index); !IsFault(f, FaultNoMemory) {
		t.Fatalf("SwapIn without room: %v", f)
	}
	if _, _, f := tab.SwapIn(Index(999)); !IsFault(f, FaultInvalidAD) {
		t.Fatalf("SwapIn of nothing: %v", f)
	}
}
