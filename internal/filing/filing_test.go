package filing

import (
	"errors"
	"testing"

	"repro/internal/obj"
	"repro/internal/sro"
	"repro/internal/typedef"
)

type fixture struct {
	tab   *obj.Table
	sros  *sro.Manager
	tdos  *typedef.Manager
	store *Store
	heap  obj.AD
}

func setup(t *testing.T) *fixture {
	t.Helper()
	tab := obj.NewTable(1 << 20)
	s := sro.NewManager(tab)
	td := typedef.NewManager(tab)
	heap, f := s.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	return &fixture{tab: tab, sros: s, tdos: td, store: NewStore(tab, s, td), heap: heap}
}

func (fx *fixture) obj(t *testing.T, dataLen, slots uint32) obj.AD {
	t.Helper()
	ad, f := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: dataLen, AccessSlots: slots})
	if f != nil {
		t.Fatal(f)
	}
	return ad
}

func TestPassivateActivateSingleObject(t *testing.T) {
	fx := setup(t)
	orig := fx.obj(t, 32, 0)
	if f := fx.tab.WriteBytes(orig, 0, []byte("persistent contents here")); f != nil {
		t.Fatal(f)
	}
	tok, err := fx.store.Passivate(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fx.store.Activate(tok, fx.heap)
	if err != nil {
		t.Fatal(err)
	}
	if back.Index == orig.Index {
		t.Fatal("activation returned the original, not a copy")
	}
	got, f := fx.tab.ReadBytes(back, 0, 24)
	if f != nil {
		t.Fatal(f)
	}
	if string(got) != "persistent contents here" {
		t.Fatalf("contents = %q", got)
	}
	typ, _ := fx.tab.TypeOf(back)
	if typ != obj.TypeGeneric {
		t.Fatalf("type = %v", typ)
	}
}

func TestGraphStructurePreserved(t *testing.T) {
	fx := setup(t)
	// root → {a, b}; a → b (shared object must not duplicate);
	// b → root (cycle must not loop the passivator).
	root := fx.obj(t, 4, 2)
	a := fx.obj(t, 4, 1)
	b := fx.obj(t, 4, 1)
	fx.tab.WriteDWord(root, 0, 1)
	fx.tab.WriteDWord(a, 0, 2)
	fx.tab.WriteDWord(b, 0, 3)
	fx.tab.StoreAD(root, 0, a)
	fx.tab.StoreAD(root, 1, b)
	fx.tab.StoreAD(a, 0, b)
	fx.tab.StoreAD(b, 0, root)

	tok, err := fx.store.Passivate(root)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fx.store.Activate(tok, fx.heap)
	if err != nil {
		t.Fatal(err)
	}
	na, _ := fx.tab.LoadAD(back, 0)
	nb, _ := fx.tab.LoadAD(back, 1)
	if v, _ := fx.tab.ReadDWord(na, 0); v != 2 {
		t.Fatalf("a contents = %d", v)
	}
	if v, _ := fx.tab.ReadDWord(nb, 0); v != 3 {
		t.Fatalf("b contents = %d", v)
	}
	// Sharing: a's referent is the same object as root's slot 1.
	ab, _ := fx.tab.LoadAD(na, 0)
	if ab.Index != nb.Index {
		t.Fatal("shared object duplicated")
	}
	// Cycle: b points back to the new root.
	cycle, _ := fx.tab.LoadAD(nb, 0)
	if cycle.Index != back.Index {
		t.Fatal("cycle not preserved")
	}
}

func TestUserTypePreserved(t *testing.T) {
	// §7.2: type identity survives the storage channel — with the
	// manager's cooperation via the type registry.
	fx := setup(t)
	tdo, f := fx.tdos.Define("tape_drive", obj.LevelGlobal, obj.NilIndex)
	if f != nil {
		t.Fatal(f)
	}
	if f := fx.store.BindType("tape_drive", tdo); f != nil {
		t.Fatal(f)
	}
	inst, f := fx.tdos.CreateInstance(tdo, obj.CreateSpec{DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	tok, err := fx.store.Passivate(inst)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fx.store.Activate(tok, fx.heap)
	if err != nil {
		t.Fatal(err)
	}
	ok, f := fx.tdos.Is(tdo, back)
	if f != nil || !ok {
		t.Fatalf("activated object lost its type: %v %v", ok, f)
	}
}

func TestUnboundTypeRefused(t *testing.T) {
	fx := setup(t)
	tdo, _ := fx.tdos.Define("orphan_type", obj.LevelGlobal, obj.NilIndex)
	inst, _ := fx.tdos.CreateInstance(tdo, obj.CreateSpec{DataLen: 4})
	tok, err := fx.store.Passivate(inst)
	if err != nil {
		t.Fatal(err)
	}
	// No BindType: activation must refuse to mint the type.
	if _, err := fx.store.Activate(tok, fx.heap); !errors.Is(err, ErrUnboundType) {
		t.Fatalf("unbound type activated: %v", err)
	}
}

func TestLocalObjectsNotFilable(t *testing.T) {
	fx := setup(t)
	local, f := fx.sros.NewLocalHeap(fx.heap, 3, 0)
	if f != nil {
		t.Fatal(f)
	}
	ad, f := fx.sros.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	if f != nil {
		t.Fatal(f)
	}
	if _, err := fx.store.Passivate(ad); !obj.IsFault(err.(*obj.Fault), obj.FaultLevel) {
		t.Fatalf("local object filed: %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	fx := setup(t)
	ad := fx.obj(t, 16, 0)
	fx.tab.WriteBytes(ad, 0, []byte("checksummed data"))
	tok, err := fx.store.Passivate(ad)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.store.Corrupt(tok, 15); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.store.Activate(tok, fx.heap); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt image activated: %v", err)
	}
}

func TestDeleteAndMissing(t *testing.T) {
	// A volume never gives a filed image up; a token it never issued is
	// missing to every lookup.
	fx := setup(t)
	tok, err := fx.store.Passivate(fx.obj(t, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.store.Activate(tok, fx.heap); err != nil {
		t.Fatal(err)
	}
	missing := tok + 1
	if _, err := fx.store.Activate(missing, fx.heap); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("activate missing file: %v", err)
	}
	if _, err := fx.store.Export(missing); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("export missing file: %v", err)
	}
	if err := fx.store.Corrupt(missing, 0); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("corrupt missing file: %v", err)
	}
}

func TestDanglingReferencesFileAsNil(t *testing.T) {
	fx := setup(t)
	dir := fx.obj(t, 0, 2)
	doomed := fx.obj(t, 4, 0)
	fx.tab.StoreAD(dir, 0, doomed)
	if f := fx.sros.Reclaim(doomed.Index); f != nil {
		t.Fatal(f)
	}
	tok, err := fx.store.Passivate(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fx.store.Activate(tok, fx.heap)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := fx.tab.LoadAD(back, 0); got.Valid() {
		t.Fatal("dangling reference resurrected")
	}
}

func TestActivateIsRepeatable(t *testing.T) {
	// One filed image can be activated many times, each a fresh copy.
	fx := setup(t)
	ad := fx.obj(t, 8, 0)
	fx.tab.WriteDWord(ad, 0, 7)
	tok, _ := fx.store.Passivate(ad)
	c1, err := fx.store.Activate(tok, fx.heap)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := fx.store.Activate(tok, fx.heap)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Index == c2.Index {
		t.Fatal("activations alias")
	}
	fx.tab.WriteDWord(c1, 0, 99)
	if v, _ := fx.tab.ReadDWord(c2, 0); v != 7 {
		t.Fatal("copies share storage")
	}
}

// TestAppendEncode: AppendEncode writes after what dst holds and nowhere
// else, the bytes it appends are Encode's, and the suffix checks on its own.
func TestAppendEncode(t *testing.T) {
	fx := setup(t)
	root := fx.obj(t, 12, 1)
	leaf := fx.obj(t, 4, 0)
	fx.tab.WriteBytes(root, 0, []byte("append after"))
	fx.tab.WriteDWord(leaf, 0, 0xC0FFEE)
	fx.tab.StoreAD(root, 0, leaf)
	want, err := fx.store.Encode(root)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("a prefix the encoder must not touch")
	dst := append(make([]byte, 0, len(prefix)+len(want)), prefix...)
	img, err := fx.store.AppendEncode(dst, root)
	if err != nil {
		t.Fatal(err)
	}
	if &img[0] != &dst[0] {
		t.Fatal("AppendEncode reallocated a buffer with room for the image")
	}
	if string(img[:len(prefix)]) != string(prefix) {
		t.Fatalf("prefix rewritten: %q", img[:len(prefix)])
	}
	if string(img[len(prefix):]) != string(want) {
		t.Fatalf("appended %x, Encode gives %x", img[len(prefix):], want)
	}
	if err := CheckImage(img[len(prefix):]); err != nil {
		t.Fatalf("appended image refused: %v", err)
	}
	// A refusal hands dst back as it came.
	local, f := fx.sros.NewLocalHeap(fx.heap, 3, 0)
	if f != nil {
		t.Fatal(f)
	}
	lo, f := fx.sros.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	if f != nil {
		t.Fatal(f)
	}
	if got, err := fx.store.AppendEncode(dst, lo); err == nil || len(got) != len(dst) {
		t.Fatalf("refused encode returned %d bytes and %v, want dst's %d and a fault", len(got), err, len(dst))
	}
}

// TestActivateImageAppends: the created objects go after what the list
// holds, which is left as it was.
func TestActivateImageAppends(t *testing.T) {
	fx := setup(t)
	root := fx.obj(t, 4, 1)
	fx.tab.StoreAD(root, 0, fx.obj(t, 4, 0))
	img, err := fx.store.Encode(root)
	if err != nil {
		t.Fatal(err)
	}
	held := []obj.AD{root}
	back, list, err := fx.store.ActivateImage(img, fx.heap, held)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0] != root || list[1] != back {
		t.Fatalf("list = %v, want [%v %v child]", list, root, back)
	}
	child, f := fx.tab.LoadAD(back, 0)
	if f != nil || child.Index != list[2].Index {
		t.Fatalf("activated root's edge leads to %v (%v), want %v", child, f, list[2])
	}
}

func TestStatsAccumulate(t *testing.T) {
	fx := setup(t)
	root := fx.obj(t, 4, 1)
	leaf := fx.obj(t, 4, 0)
	fx.tab.StoreAD(root, 0, leaf)
	tok, _ := fx.store.Passivate(root)
	fx.store.Activate(tok, fx.heap)
	if fx.store.FiledObjects != 2 || fx.store.ActivatedObjects != 2 {
		t.Fatalf("stats: filed=%d activated=%d", fx.store.FiledObjects, fx.store.ActivatedObjects)
	}
}
