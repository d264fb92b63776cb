package filing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/obj"
	"repro/internal/sro"
	"repro/internal/typedef"
)

// fuzzSeedImages produces real Encode output for the corpus: a lone
// object, a shared/cyclic graph, and a user-typed instance.
func fuzzSeedImages(f *testing.F) [][]byte {
	f.Helper()
	tab := obj.NewTable(1 << 20)
	sros := sro.NewManager(tab)
	tdos := typedef.NewManager(tab)
	heap, fault := sros.NewGlobalHeap(0)
	if fault != nil {
		f.Fatal(fault)
	}
	store := NewStore(tab, sros, tdos)

	mk := func(dataLen, slots uint32) obj.AD {
		ad, fault := sros.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: dataLen, AccessSlots: slots})
		if fault != nil {
			f.Fatal(fault)
		}
		return ad
	}
	var out [][]byte
	file := func(root obj.AD) {
		img, err := store.Encode(root)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, img)
	}

	lone := mk(24, 0)
	tab.WriteBytes(lone, 0, []byte("fuzz seed data, 24 bytes"))
	file(lone)

	root := mk(8, 2)
	a := mk(4, 1)
	b := mk(0, 1)
	tab.StoreAD(root, 0, a)
	tab.StoreAD(root, 1, b)
	tab.StoreAD(a, 0, b)
	tab.StoreAD(b, 0, root) // cycle
	file(root)

	tdo, fault := tdos.Define("fuzz_rec", obj.LevelGlobal, obj.NilIndex)
	if fault != nil {
		f.Fatal(fault)
	}
	if fault := store.BindType("fuzz_rec", tdo); fault != nil {
		f.Fatal(fault)
	}
	inst, fault := tdos.CreateInstance(tdo, obj.CreateSpec{DataLen: 16, AccessSlots: 1})
	if fault != nil {
		f.Fatal(fault)
	}
	tab.StoreAD(inst, 0, lone)
	file(inst)
	return out
}

// FuzzActivate feeds arbitrary bytes through CheckImage and ActivateImage
// — both verbatim (exercising the checksum gate) and re-checksummed
// (forcing the parser past the gate, as a hostile peer that computes
// valid CRCs would). Whatever the bytes, activation must either succeed
// or fail with an error; it must never panic and a failure must leave the
// node exactly as it found it: no live objects gained, no SRO quota held.
// An image CheckImage refuses, ActivateImage refuses with ErrCorrupt.
//
// Every image is activated in two identical worlds: into a nil list, and
// appended to a recycled list that already holds entries. The verdicts and
// the created objects must be the same, the recycled list's entries must be
// untouched, and a failure must hand it back at its old length.
func FuzzActivate(f *testing.F) {
	for _, img := range fuzzSeedImages(f) {
		f.Add(img)
		f.Add(img[:len(img)/2]) // truncation
		f.Add(img[:len(img)-4]) // checksum stripped: raw body
		flip := append([]byte{}, img...)
		flip[len(flip)/3] ^= 0x10
		f.Add(flip) // mid-image bit flip
	}
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, fileMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, reused := newFuzzWorld(t), newFuzzWorld(t)
		prefix := []obj.AD{{Index: 0x7777, Gen: 3}, {Index: 0x7778, Gen: 5}}

		images := [][]byte{data}
		// Re-checksummed variant: the parser sees the payload even when
		// the fuzzer's bytes don't carry a matching CRC.
		images = append(images, binary.LittleEndian.AppendUint32(
			append([]byte{}, data...), crc32.ChecksumIEEE(data)))

		for _, img := range images {
			checked := CheckImage(img)
			root, created, err := fresh.activate(t, img, nil)
			list := append(make([]obj.AD, 0, 8), prefix...)
			rootR, createdR, errR := reused.activate(t, img, list)
			if checked != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("CheckImage refused the image (%v) but ActivateImage returned %v", checked, err)
			}
			if fmt.Sprint(err) != fmt.Sprint(errR) || root != rootR {
				t.Fatalf("verdict depends on the list: nil list (%v, %v), recycled list (%v, %v)", root, err, rootR, errR)
			}
			if len(createdR) < len(prefix) || !slices.Equal(createdR[:len(prefix)], prefix) {
				t.Fatalf("activation rewrote the recycled list's entries: %v", createdR)
			}
			if !slices.Equal(created, createdR[len(prefix):]) {
				t.Fatalf("created objects depend on the list: %v vs %v", created, createdR[len(prefix):])
			}
		}
	})
}

// fuzzWorld is one node's table and store, as FuzzActivate builds it.
type fuzzWorld struct {
	tab   *obj.Table
	sros  *sro.Manager
	store *Store
	heap  obj.AD
}

func newFuzzWorld(t *testing.T) *fuzzWorld {
	t.Helper()
	tab := obj.NewTable(1 << 16)
	sros := sro.NewManager(tab)
	tdos := typedef.NewManager(tab)
	heap, fault := sros.NewGlobalHeap(1 << 14)
	if fault != nil {
		t.Fatal(fault)
	}
	store := NewStore(tab, sros, tdos)
	tdo, fault := tdos.Define("fuzz_rec", obj.LevelGlobal, obj.NilIndex)
	if fault != nil {
		t.Fatal(fault)
	}
	if fault := store.BindType("fuzz_rec", tdo); fault != nil {
		t.Fatal(fault)
	}
	return &fuzzWorld{tab: tab, sros: sros, store: store, heap: heap}
}

// activate runs ActivateImage appending to list and checks what it left in
// the world: on failure nothing (no live object gained, no SRO quota held),
// on success exactly the objects it appended, every one generic. A failure
// must return list at the length it was passed. It returns what
// ActivateImage returned.
func (w *fuzzWorld) activate(t *testing.T, img []byte, list []obj.AD) (obj.AD, []obj.AD, error) {
	t.Helper()
	n0, live := len(list), w.tab.Live()
	_, used, _, fault := w.sros.Usage(w.heap)
	if fault != nil {
		t.Fatal(fault)
	}
	root, list, err := w.store.ActivateImage(img, w.heap, list)
	if err != nil {
		if got := w.tab.Live(); got != live {
			t.Fatalf("failed activation leaked objects: %d -> %d", live, got)
		}
		_, u, _, fault := w.sros.Usage(w.heap)
		if fault != nil {
			t.Fatal(fault)
		}
		if u != used {
			t.Fatalf("failed activation holds SRO quota: used %d->%d", used, u)
		}
		if len(list) != n0 {
			t.Fatalf("failed activation returned a list of %d, passed %d", len(list), n0)
		}
		return root, list, err
	}
	created := list[n0:]
	if got, want := w.tab.Live(), live+len(created); got != want {
		t.Fatalf("activation created %d objects but %d appeared", len(created), got-live)
	}
	if len(created) == 0 || created[0] != root {
		t.Fatalf("activation returned root %v and created %v", root, created)
	}
	for _, ad := range created {
		d := w.tab.DescriptorAt(ad.Index)
		if d == nil {
			t.Fatalf("activated object %d not live", ad.Index)
		}
		if d.Type != obj.TypeGeneric {
			t.Fatalf("activation minted hardware type %v", d.Type)
		}
	}
	return root, list, nil
}
