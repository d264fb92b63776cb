package obj

import (
	"math/rand"
	"testing"
)

func faultCode(f *Fault) FaultCode {
	if f == nil {
		return FaultNone
	}
	return f.Code
}

// TestViewAgreesWithTable drives the same random accesses through a View
// and through the single-shot Table accessors, on twin objects, under every
// subset of read/write rights: values, fault codes, bytes left behind,
// counters and trace events must agree, because a view may skip the walk
// from AD to segment but no check.
func TestViewAgreesWithTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rights := range []Rights{RightsNone, RightRead, RightWrite, RightsData} {
		tab := newTestTable(t)
		spec := CreateSpec{Type: TypeContext, Level: 1, DataLen: 24, AccessSlots: 3}
		a, b := mustCreate(t, tab, spec), mustCreate(t, tab, spec)
		srcs := []AD{
			NilAD,
			mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 1, DataLen: 4}),
			mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 2, DataLen: 4}), // too local for StoreAD
			{Index: 999, Gen: 1, Rights: RightsAll},                                 // dangling
		}
		a, b = a.WithRights(rights), b.WithRights(rights)
		var v View
		if f := tab.View(a, RightsNone, &v); f != nil {
			t.Fatal(f)
		}
		for i := 0; i < 2_000; i++ {
			off, slot, x := uint32(rng.Intn(28)), uint32(rng.Intn(4)), rng.Uint32()
			src := srcs[rng.Intn(len(srcs))]
			gen, stores := tab.CacheGen(), tab.adStores
			var got, want uint64
			var gf, wf *Fault
			switch op := rng.Intn(7); op {
			case 0:
				var g, w uint16
				g, gf = v.Word(off)
				w, wf = tab.ReadWord(b, off)
				got, want = uint64(g), uint64(w)
			case 1:
				gf, wf = v.SetWord(off, uint16(x)), tab.WriteWord(b, off, uint16(x))
			case 2:
				var g, w uint32
				g, gf = v.DWord(off)
				w, wf = tab.ReadDWord(b, off)
				got, want = uint64(g), uint64(w)
			case 3:
				gf, wf = v.SetDWord(off, x), tab.WriteDWord(b, off, x)
			case 4:
				var g, w AD
				g, gf = v.LoadAD(slot)
				w, wf = tab.LoadAD(b, slot)
				got, want = g.Encode(), w.Encode()
			case 5, 6:
				// Each store is followed by its twin, so both see the
				// same colour on src and bump the same counters.
				store, twin := v.StoreAD, tab.StoreAD
				if op == 6 {
					store, twin = v.StoreADSystem, tab.StoreADSystem
				}
				gf = store(slot, src)
				dGen, dStores := tab.CacheGen()-gen, tab.adStores-stores
				gen, stores = tab.CacheGen(), tab.adStores
				wf = twin(b, slot, src)
				if tab.CacheGen()-gen != dGen || tab.adStores-stores != dStores {
					t.Fatalf("rights %s op %d: view moved xgen/adStores by %d/%d, table by %d/%d",
						rights, i, dGen, dStores, tab.CacheGen()-gen, tab.adStores-stores)
				}
			}
			if got != want || faultCode(gf) != faultCode(wf) {
				t.Fatalf("rights %s op %d: view %d %v, table %d %v", rights, i, got, gf, want, wf)
			}
		}
		full := func(ad AD) ([]byte, []AD) {
			data, f := tab.ReadBytes(ad.WithRights(RightsAll), 0, 24)
			if f != nil {
				t.Fatal(f)
			}
			var ads []AD
			for s := uint32(0); s < 3; s++ {
				x, f := tab.LoadAD(ad.WithRights(RightsAll), s)
				if f != nil {
					t.Fatal(f)
				}
				ads = append(ads, x)
			}
			return data, ads
		}
		da, aa := full(a)
		db, ab := full(b)
		if string(da) != string(db) || len(aa) != len(ab) || aa[0] != ab[0] || aa[1] != ab[1] || aa[2] != ab[2] {
			t.Fatalf("rights %s: twins diverged:\n%x %v\n%x %v", rights, da, aa, db, ab)
		}
	}
}

// TestViewResolve: View faults like the first access would — invalid,
// then the demanded right, then presence — and survives table growth; Fill
// refuses the same ADs without building the fault or touching the view, and
// Current says when a held view has stopped being the object.
func TestViewResolve(t *testing.T) {
	tab := newTestTable(t)
	a := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8, AccessSlots: 1})
	var v, dead View
	if f := tab.View(a.WithRights(RightWrite), RightRead, &dead); !IsFault(f, FaultRights) {
		t.Errorf("view without the demanded right: %v", f)
	}
	if f := tab.View(a, RightRead, &v); f != nil {
		t.Fatal(f)
	}
	for i := 0; i < 5_000; i++ { // grow the descriptor table under the view
		mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 1})
	}
	if f := v.SetDWord(4, 7); f != nil {
		t.Fatal(f)
	}
	if x, f := tab.ReadDWord(a, 4); f != nil || x != 7 {
		t.Fatalf("write through a view across table growth: %d %v", x, f)
	}
	if !tab.Current(&v) {
		t.Error("a view of a resident object is not current")
	}
	if f := tab.SwapOut(a.Index, 3); f != nil {
		t.Fatal(f)
	}
	if tab.Current(&v) {
		t.Error("a view of a swapped-out object is current")
	}
	if n := testing.AllocsPerRun(100, func() {
		if tab.Fill(a, RightRead, &dead) || dead.AD().Valid() {
			t.Fatal("Fill accepted a swapped-out object, or wrote the view it refused")
		}
	}); n != 0 {
		t.Errorf("a refused Fill allocates %v times", n)
	}
	if f := tab.View(a.WithRights(RightWrite), RightRead, &dead); !IsFault(f, FaultRights) {
		t.Errorf("rights come before presence: %v", f)
	}
	if f := tab.View(a, RightRead, &dead); !IsFault(f, FaultSegmentMoved) {
		t.Errorf("view of a swapped-out object: %v", f)
	}
	if f := tab.DestroyIndex(a.Index); f != nil {
		t.Fatal(f)
	}
	if f := tab.View(a.WithRights(RightsNone), RightRead, &dead); !IsFault(f, FaultInvalidAD) {
		t.Errorf("invalid comes before rights: %v", f)
	}
}

// TestADStoreInvalidatesCaches is the table of the one invalidation rule of
// the AD-move microcode: a store bumps the cache generation when it writes
// the context slot of a process (either path: PushContext and PopContext are
// system stores) or, on the user-reachable path only, any slot of a context
// (a system store into a context is SetAReg, which must not thrash the
// execution cache). Every other slot of a process — ports, tree links, the
// carry slot a wake-up loads — and every other type bumps on neither path.
func TestADStoreInvalidatesCaches(t *testing.T) {
	tab := newTestTable(t)
	leaf := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 4})
	const slots = 8
	for _, typ := range []Type{TypeProcess, TypeContext, TypeGeneric, TypePort, TypeDomain, TypeProcessor} {
		dst := mustCreate(t, tab, CreateSpec{Type: typ, AccessSlots: slots})
		for slot := uint32(0); slot < slots; slot++ {
			for _, src := range []AD{leaf, NilAD} { // a clear counts as a store
				wantSystem := typ == TypeProcess && slot == ProcessSlotContext
				wantUser := wantSystem || typ == TypeContext
				gen := tab.CacheGen()
				if f := tab.StoreAD(dst, slot, src); f != nil {
					t.Fatal(f)
				}
				if got := tab.CacheGen() != gen; got != wantUser {
					t.Errorf("StoreAD(%v) into slot %d of a %s: bumped = %v, want %v", src, slot, typ, got, wantUser)
				}
				gen = tab.CacheGen()
				if f := tab.StoreADSystem(dst, slot, src); f != nil {
					t.Fatal(f)
				}
				if got := tab.CacheGen() != gen; got != wantSystem {
					t.Errorf("StoreADSystem(%v) into slot %d of a %s: bumped = %v, want %v", src, slot, typ, got, wantSystem)
				}
			}
		}
	}
	// A refused store moved nothing and bumps nothing.
	proc := mustCreate(t, tab, CreateSpec{Type: TypeProcess, AccessSlots: slots})
	gen := tab.CacheGen()
	if f := tab.StoreADSystem(proc.Restrict(RightWrite), ProcessSlotContext, leaf); !IsFault(f, FaultRights) {
		t.Fatalf("store through a read-only capability: %v", f)
	}
	if f := tab.StoreADSystem(proc, slots, leaf); !IsFault(f, FaultBounds) {
		t.Fatalf("store past the access part: %v", f)
	}
	if tab.CacheGen() != gen {
		t.Error("a refused store bumped the cache generation")
	}
}
