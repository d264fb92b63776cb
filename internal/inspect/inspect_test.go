package inspect

import (
	"strings"
	"testing"

	"repro/internal/obj"
	"repro/internal/sro"
)

func setup(t *testing.T) (*obj.Table, *sro.Manager, obj.AD) {
	t.Helper()
	tab := obj.NewTable(1 << 20)
	s := sro.NewManager(tab)
	heap, f := s.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	return tab, s, heap
}

func TestSnapshotCounts(t *testing.T) {
	tab, s, heap := setup(t)
	if f := tab.Pin(heap); f != nil {
		t.Fatal(f)
	}
	root, _ := s.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 4, Pinned: true})
	kept, _ := s.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 100})
	if f := tab.StoreAD(root, 0, kept); f != nil {
		t.Fatal(f)
	}
	// Two unreachable objects.
	s.Create(heap, obj.CreateSpec{Type: obj.TypePort, DataLen: 32, AccessSlots: 8})
	s.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})

	snap := Take(tab)
	if snap.Live != 5 { // heap SRO + root + kept + 2 strays
		t.Fatalf("Live = %d", snap.Live)
	}
	if snap.Pinned != 2 {
		t.Fatalf("Pinned = %d", snap.Pinned)
	}
	if snap.Reachable != 3 { // heap, root, kept
		t.Fatalf("Reachable = %d", snap.Reachable)
	}
	var genCount, portCount int
	for _, tc := range snap.ByType {
		switch tc.Type {
		case obj.TypeGeneric:
			genCount = tc.Count
		case obj.TypePort:
			portCount = tc.Count
		}
	}
	if genCount != 3 || portCount != 1 {
		t.Fatalf("histogram: generic=%d port=%d", genCount, portCount)
	}
	var buf strings.Builder
	snap.Write(&buf)
	out := buf.String()
	for _, want := range []string{"5 live", "collectible", "generic", "port"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotSwappedAccounting(t *testing.T) {
	tab, s, heap := setup(t)
	ad, _ := s.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64})
	if f := tab.SwapOut(ad.Index, 1); f != nil {
		t.Fatal(f)
	}
	snap := Take(tab)
	if snap.SwappedOut != 1 {
		t.Fatalf("SwappedOut = %d", snap.SwappedOut)
	}
}

// TestSnapshotTiedCountsInTypeOrder: types with equal counts come out in
// type order on every call. The rows were sorted by count alone over a
// slice built in map order, so `imax -inspect` printed tied types in a
// different order from run to run.
func TestSnapshotTiedCountsInTypeOrder(t *testing.T) {
	tab, s, heap := setup(t)
	types := []obj.Type{obj.TypeCarrier, obj.TypeGeneric, obj.TypePort, obj.TypeDomain,
		obj.TypeContext, obj.TypeProcess, obj.TypeTDO, obj.TypeInstruction}
	for range 2 {
		for _, typ := range types {
			if _, f := s.Create(heap, obj.CreateSpec{Type: typ, DataLen: 8}); f != nil {
				t.Fatal(f)
			}
		}
	}
	for call := 0; call < 20; call++ {
		rows := Take(tab).ByType
		if len(rows) != len(types)+1 { // and the heap's SRO
			t.Fatalf("%d rows, want %d", len(rows), len(types)+1)
		}
		for i := 1; i < len(rows); i++ {
			a, b := rows[i-1], rows[i]
			if a.Count < b.Count || a.Count == b.Count && a.Type >= b.Type {
				t.Fatalf("call %d: row %d (%s ×%d) before row %d (%s ×%d)", call, i-1, a.Type, a.Count, i, b.Type, b.Count)
			}
		}
	}
}
