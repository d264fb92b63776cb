package filing

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
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

		images := [][]byte{data}
		// Re-checksummed variant: the parser sees the payload even when
		// the fuzzer's bytes don't carry a matching CRC.
		images = append(images, binary.LittleEndian.AppendUint32(
			append([]byte{}, data...), crc32.ChecksumIEEE(data)))

		for _, img := range images {
			checked := CheckImage(img)
			live := tab.Live()
			_, used, _, fault := sros.Usage(heap)
			if fault != nil {
				t.Fatal(fault)
			}
			_, created, err := store.ActivateImage(img, heap)
			if checked != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("CheckImage refused the image (%v) but ActivateImage returned %v", checked, err)
			}
			if err != nil {
				if got := tab.Live(); got != live {
					t.Fatalf("failed activation leaked objects: %d -> %d", live, got)
				}
				_, u, _, fault := sros.Usage(heap)
				if fault != nil {
					t.Fatal(fault)
				}
				if u != used {
					t.Fatalf("failed activation holds SRO quota: used %d->%d", used, u)
				}
				continue
			}
			if got, want := tab.Live(), live+len(created); got != want {
				t.Fatalf("activation created %d objects but %d appeared", len(created), got-live)
			}
			for _, ad := range created {
				d := tab.DescriptorAt(ad.Index)
				if d == nil {
					t.Fatalf("activated object %d not live", ad.Index)
				}
				if d.Type != obj.TypeGeneric {
					t.Fatalf("activation minted hardware type %v", d.Type)
				}
			}
		}
	})
}
