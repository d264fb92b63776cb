package mm

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/obj"
)

// window returns the bytes of idx's data and access parts in memory.
func window(tab *obj.Table, idx obj.Index) (data, access []byte) {
	d := tab.DescriptorAt(idx)
	return tab.Memory().Window(d.Data()), tab.Memory().Window(d.Access())
}

// TestSparseImageRoundTrip: an image holds each part only up to its last
// non-zero byte, and a swap-in restores every byte, the zero tail from a
// hole, which reads zero. Between the swap-out and the swap-in another
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
		{"only the last byte set", 1024, 4, func(tab *obj.Table, ad, other obj.AD) {
			// Through the table, which clears the object's FlagPristine: the
			// last data byte, and the last slot, whose last byte holds the
			// AD's valid bit.
			if f := tab.WriteByteAt(ad, 1023, 0x5a); f != nil {
				t.Fatal(f)
			}
			if f := tab.StoreAD(ad, 3, other); f != nil {
				t.Fatal(f)
			}
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
			if int(im.n) != c.kept || im.dataLen() != int(c.data) || im.accessLen() != int(c.slots*obj.ADSlotSize) {
				t.Fatalf("image holds %d bytes of parts %d and %d long; want %d of %d and %d",
					im.n, im.dataLen(), im.accessLen(), c.kept, c.data, c.slots*obj.ADSlotSize)
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

// TestStoreTrustsPristine: the swap-out takes the image of an object the
// table flags pristine as empty, without reading either part. A compaction
// move keeps the flag, and the moved object swaps out empty. One byte
// written behind the table into the data part of such an object, which no
// checked path can do, does not reach its image: the store never read the
// part. The auditor reports that world before the swap-out.
func TestStoreTrustsPristine(t *testing.T) {
	tab, s := setup(t, 1<<16)
	m := NewSwapping(tab, s)
	heap, _ := m.NewHeap(0)
	var ads [3]obj.AD // a hole to be, then the object moved into it, then the doctored one
	for i := range ads {
		var f *obj.Fault
		if ads[i], f = m.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 1024, AccessSlots: 4}); f != nil {
			t.Fatal(f)
		}
	}
	if f := s.Reclaim(ads[0].Index); f != nil {
		t.Fatal(f)
	}
	moved, before := ads[1], tab.DescriptorAt(ads[1].Index).Data()
	if n, _, f := m.Compact(); f != nil || n == 0 || tab.DescriptorAt(moved.Index).Data() == before {
		t.Fatalf("compact moved %d parts, object %d's data part still at %v: %v", n, moved.Index, before, f)
	}
	if !tab.DescriptorAt(moved.Index).Pristine() {
		t.Fatal("a compaction move cleared FlagPristine")
	}

	doctored := ads[2]
	data, _ := window(tab, doctored.Index)
	data[100] = 0x5a
	vs := (&audit.Auditor{Table: tab}).CheckObjects()
	if len(vs) != 1 || vs[0].Obj != doctored.Index || !strings.Contains(vs[0].Msg, "pristine object's data byte 100") {
		t.Fatalf("the auditor reports %v, want the pristine object %d's data byte 100", vs, doctored.Index)
	}
	for _, ad := range []obj.AD{moved, doctored} {
		if f := m.swapOut(ad.Index); f != nil {
			t.Fatal(f)
		}
		if im := m.Store.images[ad.Index]; im.n != 0 {
			t.Fatalf("object %d's image holds %d bytes, want 0", ad.Index, im.n)
		}
	}
}

// TestBackingStoreRefusesMismatch: get gives an image up only to the token
// that names it and only into parts of its two lengths; a refusal leaves the
// image where it was.
func TestBackingStoreRefusesMismatch(t *testing.T) {
	b := NewBackingStore()
	data, access := make([]byte, 16), make([]byte, 8)
	data[3], access[0] = 1, 2
	tok := b.put(5, 8, data, access, false)
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

// TestImageRecord: an index record is at most 24 bytes and holds no
// pointer, so the collector does not scan the index, and its packed
// lengths carry the longest parts an object has.
func TestImageRecord(t *testing.T) {
	typ := reflect.TypeOf(image{})
	if typ.Size() > 24 {
		t.Errorf("an image record is %d bytes, want at most 24", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("image.%s is a %v, want an unsigned integer", f.Name, f.Type)
		}
	}
	b := NewBackingStore()
	data, access := make([]byte, mem.MaxPart), make([]byte, obj.MaxAccessSlots*obj.ADSlotSize)
	data[len(data)-1], access[len(access)-1] = 1, 2
	b.put(0, 1, data, access, false)
	if im := b.images[0]; im.dataLen() != len(data) || im.accessLen() != len(access) || int(im.n) != len(data)+len(access) {
		t.Fatalf("an image of the longest parts reads %d and %d long, %d held; want %d, %d and %d",
			im.dataLen(), im.accessLen(), im.n, len(data), len(access), len(data)+len(access))
	}
}

// TestBackingStoreBytesPerImage: a store holding 20 000 images with 5- to
// 13-byte prefixes, the sessions a swap workload leaves swapped out, holds
// at most 48 bytes of live heap an image: a 24-byte record and a 16-byte
// slot, where a record of 48 bytes and a buffer of 32 held 80.
func TestBackingStoreBytesPerImage(t *testing.T) {
	const images = 20_000
	data, access := make([]byte, 2048), make([]byte, 2*obj.ADSlotSize)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b := NewBackingStore()
	for i := 0; i < images; i++ {
		kept := 5 + i%9
		for j := 0; j < kept; j++ {
			data[j] = byte(i+j) | 1
		}
		b.put(obj.Index(i), images, data, access, false)
		clear(data[:kept])
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	held := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / images
	t.Logf("%.2f bytes of live heap an image", held)
	if held > 48 {
		t.Errorf("the store holds %.2f bytes an image, want at most 48", held)
	}
	if b.Images() != images {
		t.Fatalf("%d images held, want %d", b.Images(), images)
	}
}

// heldImage is FuzzBackingStore's reference for an image: its token and
// the parts put.
type heldImage struct {
	tok          uint64
	data, access []byte
}

// storeOp encodes one operation of FuzzBackingStore: its kind (put, get,
// release or refused get), the index, the part lengths, how much of each
// part is its non-zero prefix in 255ths, and the seed of the prefix bytes.
func storeOp(kind, idx byte, dataLen, slots int, dataFrac, accessFrac, seed byte) []byte {
	op := []byte{kind, idx, 0, 0, 0, 0, 0, dataFrac, accessFrac, seed}
	op[2], op[3], op[4] = byte(dataLen), byte(dataLen>>8), byte(dataLen>>16)
	binary.LittleEndian.PutUint16(op[5:7], uint16(slots))
	return op
}

// prefixed returns a part of n bytes whose non-zero prefix is frac/255 of
// it: seeded bytes, the last of them non-zero.
// byteLoopPrefix is nonZero's oracle: the length of p up to and including
// its last non-zero byte, found one byte at a time from the end. The table
// test below reads about a gigabyte through it in one goroutine, which the
// race detector would otherwise instrument byte by byte.
//
//go:norace
func byteLoopPrefix(p []byte) int {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return n
}

// TestNonZeroAgainstByteLoop holds nonZero to its oracle at the lengths its
// loops and its halving turn on. A part of each length reads zero, or has
// its last non-zero byte at every position within a word of each boundary
// its candidate tail can be halved at, and of both ends, with one more
// non-zero byte halfway before it.
func TestNonZeroAgainstByteLoop(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 2048, mem.MaxPart - 1, mem.MaxPart} {
		p := make([]byte, n)
		near := make([]bool, n)
		mark := func(b int) {
			for k := max(0, b-8); k < min(n, b+8); k++ {
				near[k] = true
			}
		}
		mark(0)
		mark(n)
		var halve func(lo, hi int)
		halve = func(lo, hi int) {
			if hi-lo > 64 {
				mid := lo + (hi-lo)/2
				mark(mid)
				halve(lo, mid)
				halve(mid, hi)
			}
		}
		halve(0, n)
		if got := nonZero(p); got != 0 {
			t.Errorf("%d zero bytes: nonZero = %d", n, got)
		}
		for k := range near {
			if !near[k] {
				continue
			}
			p[k/2], p[k] = 0x5a, 0x80
			if got, want := nonZero(p), byteLoopPrefix(p); got != want || want != k+1 {
				t.Errorf("%d bytes, last non-zero at %d: nonZero = %d, byte loop %d", n, k, got, want)
			}
			p[k/2], p[k] = 0, 0
		}
	}
}

func prefixed(n int, frac, seed byte) []byte {
	p := make([]byte, n)
	k := n * int(frac) / 255
	x := uint64(seed) + 1
	for i := 0; i < k; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		p[i] = byte(x >> 56)
	}
	if k > 0 {
		p[k-1] |= 1
	}
	return p
}

// FuzzBackingStore runs the store against a map over 64 indices: puts of
// parts from empty to mem.MaxPart long with seeded non-zero prefixes,
// gets, releases under the right token and a stale one, and gets the
// store must refuse. After every operation each held image holds exactly
// its parts' prefixes and lengths, Token and Images agree with the map,
// tokens run 1, 2, 3, … in put order, and no two slots held or free
// overlap or leave their block.
func FuzzBackingStore(f *testing.F) {
	var ops []byte
	add := func(op []byte) { ops = append(ops, op...) }
	// Empty, small and dense images, two past half a block, the longest, a
	// put over a held image, and refusals of each kind.
	add(storeOp(0, 1, 2048, 0, 0, 0, 1))
	add(storeOp(0, 2, 2048, 4, 1, 255, 2))
	add(storeOp(0, 3, 6000, 0, 255, 0, 3))
	add(storeOp(0, 4, mem.MaxPart, obj.MaxAccessSlots, 255, 255, 4))
	add(storeOp(0, 5, 300, 40, 200, 100, 5))
	for refusal := byte(0); refusal < 4; refusal++ {
		add(storeOp(3, 3, 0, 0, refusal, 0, 0))
	}
	add(storeOp(1, 3, 0, 0, 0, 0, 0))
	add(storeOp(0, 5, 100, 1, 255, 255, 6))
	add(storeOp(2, 4, 0, 0, 1, 0, 0))
	add(storeOp(2, 4, 0, 0, 0, 0, 0))
	add(storeOp(0, 6, 7000, 0, 255, 0, 7))
	add(storeOp(1, 2, 0, 0, 0, 0, 0))
	add(storeOp(1, 1, 0, 0, 0, 0, 0))
	f.Add(bytes.Clone(ops))
	// Enough 512-byte images to carve a second block of their class, half
	// released and half read back, then written again from the free list.
	ops = ops[:0]
	for i := byte(0); i < 40; i++ {
		add(storeOp(0, i, 512, 0, 255, 0, i))
	}
	for i := byte(0); i < 40; i += 2 {
		add(storeOp(2, i, 0, 0, 0, 0, 0))
		add(storeOp(1, i+1, 0, 0, 0, 0, 0))
	}
	for i := byte(0); i < 40; i++ {
		add(storeOp(0, i, 400, 8, 255, 255, i))
	}
	f.Add(bytes.Clone(ops))

	f.Fuzz(func(t *testing.T, ops []byte) {
		b := NewBackingStore()
		ref := make(map[obj.Index]heldImage)
		next := uint64(1)
		for step := 0; len(ops) >= 10; step, ops = step+1, ops[10:] {
			kind, idx := ops[0]%4, obj.Index(ops[1]%64)
			dataLen := int(uint32(ops[2])|uint32(ops[3])<<8|uint32(ops[4])<<16) % (mem.MaxPart + 1)
			accessLen := int(binary.LittleEndian.Uint16(ops[5:7])) % (obj.MaxAccessSlots + 1) * obj.ADSlotSize
			e, held := ref[idx]
			switch kind {
			case 0:
				data, access := prefixed(dataLen, ops[7], ops[9]), prefixed(accessLen, ops[8], ops[9]^0xff)
				pristine := ops[7] == 0 && ops[8] == 0 // both parts all zero, as a pristine object's are
				if tok := b.put(idx, 64, data, access, pristine); tok != next {
					t.Fatalf("step %d: put returned token %d, want %d", step, tok, next)
				}
				ref[idx] = heldImage{next, data, access}
				next++
			case 1:
				data, access := make([]byte, len(e.data)), make([]byte, len(e.access))
				if got := b.get(idx, e.tok, data, access); got != held {
					t.Fatalf("step %d: get of index %d = %v, want %v", step, idx, got, held)
				}
				if held && (!bytes.Equal(data, e.data) || !bytes.Equal(access, e.access)) {
					t.Fatalf("step %d: index %d read back\n%x %x\nwant\n%x %x", step, idx, data, access, e.data, e.access)
				}
				delete(ref, idx)
			case 2:
				tok := e.tok
				if ops[7]%2 == 1 {
					tok++ // stale: the image stays
				} else {
					delete(ref, idx)
				}
				b.Release(idx, tok)
			case 3:
				tok, dl, al := e.tok, len(e.data), len(e.access)
				if !held {
					tok, dl, al = next-1, dataLen, accessLen
				}
				switch ops[7] % 4 {
				case 0:
					tok++
				case 1:
					tok = 0
				case 2:
					dl++
				case 3:
					al += obj.ADSlotSize
				}
				if b.get(idx, tok, make([]byte, dl), make([]byte, al)) {
					t.Fatalf("step %d: get of index %d under token %d into %d and %d bytes succeeded", step, idx, tok, dl, al)
				}
			}
			checkStore(t, step, b, ref)
		}
	})
}

// checkStore holds b to the reference after an operation of
// FuzzBackingStore.
func checkStore(t *testing.T, step int, b *BackingStore, ref map[obj.Index]heldImage) {
	t.Helper()
	if b.Images() != len(ref) {
		t.Fatalf("step %d: the store holds %d images, want %d", step, b.Images(), len(ref))
	}
	type span struct{ block, from, to uint32 }
	var spans []span
	claim := func(h uint32, c int) {
		from := h & (blockSize - 1)
		to := from + 1<<(c+minShift)
		if int(h>>blockShift) >= len(b.blocks) || int(to) > len(b.blocks[h>>blockShift]) {
			t.Fatalf("step %d: slot %#x of class %d leaves the arena", step, h, c)
		}
		spans = append(spans, span{h >> blockShift, from, to})
	}
	for idx := obj.Index(0); idx < 64; idx++ {
		e := ref[idx]
		if tok := b.Token(idx); tok != e.tok {
			t.Fatalf("step %d: token of index %d = %d, want %d", step, idx, tok, e.tok)
		}
		if e.tok == 0 {
			continue
		}
		im := &b.images[idx]
		kept, akept := byteLoopPrefix(e.data), byteLoopPrefix(e.access)
		want := append(e.data[:kept:kept], e.access[:akept]...)
		if im.dataLen() != len(e.data) || im.accessLen() != len(e.access) || int(im.kept) != kept ||
			!bytes.Equal(b.bytes(im.slot, im.n), want) {
			t.Fatalf("step %d: index %d holds %d of parts %d and %d long, data prefix %d; want %d of %d and %d, %d",
				step, idx, im.n, im.dataLen(), im.accessLen(), im.kept, len(want), len(e.data), len(e.access), kept)
		}
		claim(im.slot, class(im.n))
	}
	for c, h := range b.free {
		for ; h != noSlot; h = binary.LittleEndian.Uint32(b.bytes(h, 4)) {
			claim(h, c)
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		return spans[i].block < spans[j].block || spans[i].block == spans[j].block && spans[i].from < spans[j].from
	})
	for i := 1; i < len(spans); i++ {
		if p, q := spans[i-1], spans[i]; p.block == q.block && p.to > q.from {
			t.Fatalf("step %d: slots %v and %v overlap", step, p, q)
		}
	}
}
