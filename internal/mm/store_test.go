package mm

import (
	"bytes"
	"testing"

	"repro/internal/obj"
)

// window returns the bytes of idx's data and access parts in memory.
func window(tab *obj.Table, idx obj.Index) (data, access []byte) {
	d := tab.DescriptorAt(idx)
	return tab.Memory().Window(d.Data()), tab.Memory().Window(d.Access())
}

// TestSparseImageRoundTrip: an image holds each part only up to its last
// non-zero byte, and a swap-in restores every byte, the zero tail from the
// extent mem.Alloc zeroed. Between the swap-out and the swap-in another
// object takes the freed memory and fills it, so a tail that came back as
// anything but zeroes would show.
func TestSparseImageRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name        string
		data, slots uint32
		fill        func(tab *obj.Table, ad, other obj.AD)
		kept        int // bytes the image holds
	}{
		{"all-zero parts", 1024, 4, func(*obj.Table, obj.AD, obj.AD) {}, 0},
		{"only the last byte set", 1024, 4, func(tab *obj.Table, ad, _ obj.AD) {
			data, access := window(tab, ad.Index)
			data[len(data)-1], access[len(access)-1] = 0x5a, 0xa5
		}, 1024 + 4*obj.ADSlotSize},
		{"dense parts", 1024, 4, func(tab *obj.Table, ad, other obj.AD) {
			data, _ := window(tab, ad.Index)
			for i := range data {
				data[i] = byte(i) | 1
			}
			for slot := uint32(0); slot < 4; slot++ {
				if f := tab.StoreAD(ad, slot, other); f != nil {
					t.Fatal(f)
				}
			}
		}, 1024 + 4*obj.ADSlotSize},
		{"access part whose last slot is NilAD", 1024, 4, func(tab *obj.Table, ad, other obj.AD) {
			if f := tab.WriteDWord(ad, 512, 7); f != nil {
				t.Fatal(f)
			}
			for slot := uint32(0); slot < 3; slot++ {
				if f := tab.StoreAD(ad, slot, other); f != nil {
					t.Fatal(f)
				}
			}
		}, 513 + 3*obj.ADSlotSize}, // an AD's valid bit is the top of its slot's last byte
		{"DataLen 0", 0, 4, func(tab *obj.Table, ad, other obj.AD) {
			if f := tab.StoreAD(ad, 1, other); f != nil {
				t.Fatal(f)
			}
		}, 2 * obj.ADSlotSize},
		{"AccessSlots 0", 1024, 0, func(tab *obj.Table, ad, _ obj.AD) {
			if f := tab.WriteDWord(ad, 8, 0x01020304); f != nil {
				t.Fatal(f)
			}
		}, 12},
	} {
		t.Run(c.name, func(t *testing.T) {
			tab, s := setup(t, 1<<16)
			m := NewSwapping(tab, s)
			heap, _ := m.NewHeap(0)
			other, f := m.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
			if f != nil {
				t.Fatal(f)
			}
			ad, f := m.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: c.data, AccessSlots: c.slots})
			if f != nil {
				t.Fatal(f)
			}
			c.fill(tab, ad, other)
			data, access := window(tab, ad.Index)
			wantData, wantAccess := bytes.Clone(data), bytes.Clone(access)

			if f := m.swapOut(ad.Index); f != nil {
				t.Fatal(f)
			}
			im := m.Store.images[ad.Index]
			if len(im.buf) != c.kept || im.dataLen != c.data || im.accessLen != c.slots*obj.ADSlotSize {
				t.Fatalf("image holds %d bytes of parts %d and %d long; want %d of %d and %d",
					len(im.buf), im.dataLen, im.accessLen, c.kept, c.data, c.slots*obj.ADSlotSize)
			}
			scribble, f := m.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: c.data + c.slots*obj.ADSlotSize})
			if f != nil {
				t.Fatal(f)
			}
			sd, _ := window(tab, scribble.Index)
			for i := range sd {
				sd[i] = 0xff
			}
			if f := tab.Destroy(scribble); f != nil {
				t.Fatal(f)
			}

			if f := m.EnsureResident(ad.Index); f != nil {
				t.Fatal(f)
			}
			data, access = window(tab, ad.Index)
			if !bytes.Equal(data, wantData) || !bytes.Equal(access, wantAccess) {
				t.Fatalf("restored parts differ from the originals:\ndata   %x\nwant   %x\naccess %x\nwant   %x", data, wantData, access, wantAccess)
			}
			if m.Store.Images() != 0 {
				t.Fatalf("%d images held after the swap-in", m.Store.Images())
			}
		})
	}
}

// TestBackingStoreRefusesMismatch: get gives an image up only to the token
// that names it and only into parts of its two lengths; a refusal leaves the
// image where it was.
func TestBackingStoreRefusesMismatch(t *testing.T) {
	b := NewBackingStore()
	data, access := make([]byte, 16), make([]byte, 8)
	data[3], access[0] = 1, 2
	tok := b.put(5, 8, data, access)
	for _, c := range []struct {
		name         string
		tok          uint64
		data, access int
	}{
		{"stale token", tok + 1, 16, 8},
		{"no token", 0, 16, 8},
		{"short data part", tok, 15, 8},
		{"long access part", tok, 16, 9},
		{"the lengths swapped", tok, 8, 16},
	} {
		if b.get(5, c.tok, make([]byte, c.data), make([]byte, c.access)) {
			t.Errorf("%s: get succeeded", c.name)
		}
	}
	if b.Images() != 1 || b.Token(5) != tok {
		t.Fatalf("after the refusals: %d images, token %d; want 1, %d", b.Images(), b.Token(5), tok)
	}
	gotData, gotAccess := make([]byte, 16), make([]byte, 8)
	if !b.get(5, tok, gotData, gotAccess) || !bytes.Equal(gotData, data) || !bytes.Equal(gotAccess, access) {
		t.Fatalf("get = %x %x, want %x %x", gotData, gotAccess, data, access)
	}
	if b.get(5, tok, gotData, gotAccess) {
		t.Fatal("an image was read back twice")
	}
}

// TestSwapRoundTripAllocFree holds the backing store to its allocation
// contract: once warm, swapping objects out and back in allocates nothing,
// whichever order images of the least buffer size and larger ones are
// written out and read back in.
func TestSwapRoundTripAllocFree(t *testing.T) {
	tab, s := setup(t, 1<<16)
	m := NewSwapping(tab, s)
	heap, _ := m.NewHeap(0)
	var ads []obj.AD
	for _, spec := range []obj.CreateSpec{
		{Type: obj.TypeGeneric, DataLen: 2048},                // written near the front: a small image
		{Type: obj.TypeGeneric, DataLen: 64, AccessSlots: 64}, // every slot set: a large one
		{Type: obj.TypeGeneric, DataLen: 4096},                // never written: an empty one
		{Type: obj.TypeGeneric, DataLen: 200, AccessSlots: 2}, // dense data: a large one less than half that
	} {
		ad, f := m.Allocate(heap, spec)
		if f != nil {
			t.Fatal(f)
		}
		ads = append(ads, ad)
	}
	if f := tab.WriteDWord(ads[0], 4, 9); f != nil {
		t.Fatal(f)
	}
	for slot := uint32(0); slot < 64; slot++ {
		if f := tab.StoreAD(ads[1], slot, ads[0]); f != nil {
			t.Fatal(f)
		}
	}
	for off := uint32(0); off < 200; off += 4 {
		if f := tab.WriteDWord(ads[3], off, off+1); f != nil {
			t.Fatal(f)
		}
	}
	round := 0
	cycle := func() {
		round++
		for _, ad := range ads {
			if f := m.swapOut(ad.Index); f != nil {
				t.Fatal(f)
			}
		}
		for i := range ads {
			ad := ads[(i+round)%len(ads)] // read back in a rotating order
			if f := m.EnsureResident(ad.Index); f != nil {
				t.Fatal(f)
			}
		}
	}
	cycle()
	for run := 0; run < 2*len(ads); run++ { // each run is two cycles, a warm-up and the one counted
		if n := testing.AllocsPerRun(1, cycle); n != 0 {
			t.Fatalf("cycle %d, a warm swap-out and swap-in of every object, allocates %v times; want 0", round, n)
		}
	}
	if v, f := tab.ReadDWord(ads[3], 196); f != nil || v != 197 {
		t.Fatalf("after the cycles: dword 196 = %d, %v; want 197", v, f)
	}
}
