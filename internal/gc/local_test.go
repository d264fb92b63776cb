package gc

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/trace"
)

func TestCollectLocalReclaimsWithinSRO(t *testing.T) {
	fx := setup(t)
	local, f := fx.sros.NewLocalHeap(fx.heap, 2, 0)
	if f != nil {
		t.Fatal(f)
	}
	// Keep the SRO itself reachable so only its contents are at stake.
	// (The SRO is level 0 — allocated from the global heap — so the
	// directory may hold it.)
	if f := fx.tab.StoreAD(fx.root, 0, local); f != nil {
		t.Fatal(f)
	}
	// A kept object: referenced from a local-level holder that is
	// itself referenced from the population's own live chain... the
	// simplest cross-check: kept is referenced from another kept member
	// that the outside world references via a level-2 anchor allocated
	// from the same SRO.
	anchor, f := fx.sros.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 2})
	if f != nil {
		t.Fatal(f)
	}
	kept, f := fx.sros.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	if f := fx.tab.StoreAD(anchor, 0, kept); f != nil {
		t.Fatal(f)
	}
	// An outside root holds the anchor: a level-2 directory allocated
	// outside the population (from a sibling heap at the same level).
	sibling, f := fx.sros.NewLocalHeap(fx.heap, 2, 0)
	if f != nil {
		t.Fatal(f)
	}
	outDir, f := fx.sros.Create(sibling, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 1})
	if f != nil {
		t.Fatal(f)
	}
	if f := fx.tab.StoreAD(outDir, 0, anchor); f != nil {
		t.Fatal(f)
	}
	// Garbage within the population.
	lost1, _ := fx.sros.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	lost2, _ := fx.sros.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 1})
	fx.tab.StoreAD(lost2, 0, lost1) // garbage chain

	spent, reclaimed, f := fx.c.CollectLocal(local.Index)
	if f != nil {
		t.Fatal(f)
	}
	if spent == 0 {
		t.Fatal("no work charged")
	}
	if reclaimed != 2 {
		t.Fatalf("reclaimed %d, want 2", reclaimed)
	}
	for _, ad := range []obj.AD{anchor, kept} {
		if fx.gone(ad) {
			t.Fatal("reachable population member collected")
		}
	}
	if !fx.gone(lost1) || !fx.gone(lost2) {
		t.Fatal("garbage survived local collection")
	}
	// Objects outside the population are untouched even if garbage.
	outsideGarbage := fx.alloc(t, 0)
	if _, _, f := fx.c.CollectLocal(local.Index); f != nil {
		t.Fatal(f)
	}
	if fx.gone(outsideGarbage) {
		t.Fatal("local collection reclaimed outside its population")
	}
}

func TestCollectLocalEmptySRO(t *testing.T) {
	fx := setup(t)
	local, _ := fx.sros.NewLocalHeap(fx.heap, 1, 0)
	spent, n, f := fx.c.CollectLocal(local.Index)
	if f != nil || n != 0 || spent != 0 {
		t.Fatalf("empty SRO: %v %d %v", spent, n, f)
	}
}

func TestCollectLocalHonoursDestructionFilter(t *testing.T) {
	fx := setup(t)
	local, _ := fx.sros.NewLocalHeap(fx.heap, 0, 0) // level-0 local pool
	fx.tab.StoreAD(fx.root, 0, local)
	tdo, _ := fx.tdos.Define("res", obj.LevelGlobal, obj.NilIndex)
	fx.tab.StoreAD(fx.root, 1, tdo)
	fport, _ := fx.ports.Create(fx.heap, 8, port.FIFO)
	fx.tab.StoreAD(fx.root, 2, fport)
	if f := fx.tdos.ArmDestructionFilter(tdo, fport); f != nil {
		t.Fatal(f)
	}
	inst, f := fx.tdos.CreateInstance(tdo, obj.CreateSpec{DataLen: 8, SRO: local.Index})
	if f != nil {
		t.Fatal(f)
	}
	_, n, f := fx.c.CollectLocal(local.Index)
	if f != nil {
		t.Fatal(f)
	}
	if n != 1 {
		t.Fatalf("filtered count = %d", n)
	}
	if fx.gone(inst) {
		t.Fatal("filtered instance reclaimed")
	}
	msg, blocked, _, f := fx.ports.Receive(fport, obj.NilAD)
	if f != nil || blocked || msg.Index != inst.Index {
		t.Fatalf("filter delivery missing: %v %v %v", msg, blocked, f)
	}
}

func TestCollectLocalRefusesSwappedParts(t *testing.T) {
	fx := setup(t)
	local, _ := fx.sros.NewLocalHeap(fx.heap, 1, 0)
	fx.tab.StoreAD(fx.root, 0, local)
	if _, f := fx.sros.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}); f != nil {
		t.Fatal(f)
	}
	// An unrelated object with an access part is swapped out; its
	// references cannot be examined, so the collection must refuse.
	outside := fx.alloc(t, 2)
	fx.tab.StoreAD(fx.root, 1, outside)
	if f := fx.tab.SwapOut(outside.Index, 1, math.MaxUint32, math.MaxUint32); f != nil {
		t.Fatal(f)
	}
	if _, _, f := fx.c.CollectLocal(local.Index); !obj.IsFault(f, obj.FaultSegmentMoved) {
		t.Fatalf("swapped access part tolerated: %v", f)
	}
}

// TestCollectLocalDeterministic: a local collection reclaims in table
// order, so two worlds built alike free the same slots in the same order —
// the table's free list is LIFO, and the next creations land on the same
// indices — and emit the same events, a reclaim event per object like the
// global sweep's. (The sweep used to range over a Go map: twenty runs gave
// twenty index sequences.)
func TestCollectLocalDeterministic(t *testing.T) {
	world := func() string {
		fx := setup(t)
		log := trace.New(1024)
		fx.tab.SetTracer(log)
		local, f := fx.sros.NewLocalHeap(fx.heap, 2, 0)
		if f != nil {
			t.Fatal(f)
		}
		if f := fx.tab.StoreAD(fx.root, 0, local); f != nil {
			t.Fatal(f)
		}
		for i := 0; i < 12; i++ { // garbage from birth
			if _, f := fx.sros.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}); f != nil {
				t.Fatal(f)
			}
		}
		if _, n, f := fx.c.CollectLocal(local.Index); f != nil || n != 12 {
			t.Fatalf("collected %d of 12: %v", n, f)
		}
		if got := log.Counts()[trace.EvGCReclaim]; got != 12 {
			t.Errorf("%d reclaim events for 12 reclaimed objects", got)
		}
		var out bytes.Buffer
		if err := log.Dump(&out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			fmt.Fprintln(&out, "next", fx.alloc(t, 0).Index)
		}
		return out.String()
	}
	first := world()
	for i := 0; i < 8; i++ {
		if again := world(); again != first {
			t.Fatalf("two identical worlds diverged:\n%s\n--- against ---\n%s", first, again)
		}
	}
}
