package mm

// The differential fuzz: FuzzSwapCompact decodes bytes into the witness's
// operations and runs them on the real manager and on refSwapping, the
// manager as it was before the resident set, comparing the two worlds after
// every operation. refSwapping keeps the old loops verbatim — a clock hand
// that sweeps every table slot, a compactor that visits every slot and
// finds out whether a part can move by allocating and freeing, images
// copied through fresh slices into a map — so it is the one full-table walk
// left in the repository, and it exists to be disagreed with.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/sro"
	"repro/internal/vtime"
)

type refImage struct{ data, access []byte }

type refSwapping struct {
	Table     *obj.Table
	SROs      *sro.Manager
	images    map[uint64]refImage
	next      uint64
	clockHand obj.Index
}

func newRefSwapping(t *obj.Table, s *sro.Manager) *refSwapping {
	return &refSwapping{Table: t, SROs: s, images: make(map[uint64]refImage), next: 1}
}

func (m *refSwapping) Name() string { return "reference" }

func (m *refSwapping) NewHeap(claim uint32) (obj.AD, *obj.Fault) {
	return m.SROs.NewGlobalHeap(claim)
}

func (m *refSwapping) NewLocalHeap(parent obj.AD, level obj.Level, claim uint32) (obj.AD, *obj.Fault) {
	return m.SROs.NewLocalHeap(parent, level, claim)
}

func (m *refSwapping) DestroyHeap(heap obj.AD) (int, *obj.Fault) {
	return m.SROs.DestroyHeap(heap)
}

// Allocate opens the heap again for every try, as the manager once did.
func (m *refSwapping) Allocate(heap obj.AD, spec obj.CreateSpec) (obj.AD, *obj.Fault) {
	return m.allocate(func() (obj.AD, *obj.Fault) { return m.SROs.Create(heap, spec) })
}

func (m *refSwapping) AllocateIn(hv *obj.View, spec obj.CreateSpec) (obj.AD, *obj.Fault) {
	return m.allocate(func() (obj.AD, *obj.Fault) { return m.SROs.CreateIn(hv, spec) })
}

// allocate tries create, evicting one victim after each no-memory refusal.
func (m *refSwapping) allocate(create func() (obj.AD, *obj.Fault)) (obj.AD, *obj.Fault) {
	for {
		ad, f := create()
		if f == nil {
			return ad, nil
		}
		if f.Code != obj.FaultNoMemory {
			return obj.NilAD, f
		}
		if _, evicted, ef := m.EvictVictim(); ef != nil {
			return obj.NilAD, ef
		} else if !evicted {
			return obj.NilAD, f
		}
	}
}

func (m *refSwapping) swappable(idx obj.Index) bool {
	d := m.Table.DescriptorAt(idx)
	if d == nil || d.SwappedOut() || d.Pinned() {
		return false
	}
	switch d.Type {
	case obj.TypeGeneric, obj.TypeInstruction, obj.TypeTDO:
		return d.DataLen > 0 || d.AccessSlots > 0
	}
	return false
}

func (m *refSwapping) swapOut(idx obj.Index) *obj.Fault {
	d := m.Table.DescriptorAt(idx)
	if d == nil {
		return obj.Faultf(obj.FaultInvalidAD, obj.AD{Index: idx}, "no such object")
	}
	mem := m.Table.Memory()
	img := refImage{
		data:   append([]byte(nil), mem.Window(d.Data())...),
		access: append([]byte(nil), mem.Window(d.Access())...),
	}
	tok := m.next
	m.next++
	m.images[tok] = img
	if f := m.Table.SwapOut(idx, tok, d.DataLen, d.Access().Len); f != nil {
		delete(m.images, tok)
		return f
	}
	return nil
}

func (m *refSwapping) EvictVictim() (victim obj.Index, ok bool, f *obj.Fault) {
	n := obj.Index(m.Table.Len())
	if n <= 1 {
		return obj.NilIndex, false, nil
	}
	hand := m.clockHand
	for i := obj.Index(0); i < n; i++ {
		hand++
		if hand >= n {
			hand = 1
		}
		if m.swappable(hand) {
			m.clockHand = hand
			return hand, true, m.swapOut(hand)
		}
	}
	return obj.NilIndex, false, nil
}

func (m *refSwapping) EnsureResident(idx obj.Index) *obj.Fault {
	d := m.Table.DescriptorAt(idx)
	if d == nil {
		return obj.Faultf(obj.FaultInvalidAD, obj.AD{Index: idx}, "no such object")
	}
	if !d.SwappedOut() {
		return nil
	}
	tok := d.SwapToken()
	for {
		data, access, f := m.Table.SwapIn(idx)
		if f == nil {
			img, ok := m.images[tok]
			if !ok {
				return obj.Faultf(obj.FaultOddity, obj.AD{Index: idx}, "backing image %d missing", tok)
			}
			delete(m.images, tok)
			mem := m.Table.Memory()
			dw, aw := mem.Window(data), mem.Window(access)
			if len(dw) != len(img.data) || len(aw) != len(img.access) {
				return obj.Faultf(obj.FaultOddity, obj.AD{Index: idx}, "extents %v and %v for an image of %d and %d bytes", data, access, len(img.data), len(img.access))
			}
			copy(dw, img.data)
			copy(aw, img.access)
			return nil
		}
		if f.Code != obj.FaultNoMemory {
			return f
		}
		if _, evicted, ef := m.EvictVictim(); ef != nil {
			return ef
		} else if !evicted {
			return f
		}
	}
}

func (m *refSwapping) Compact() (moved int, spent vtime.Cycles, fault *obj.Fault) {
	for {
		progress := false
		for i := 1; i < m.Table.Len(); i++ {
			d := m.Table.DescriptorAt(obj.Index(i))
			if d == nil || d.SwappedOut() {
				continue
			}
			if d.DataLen > 0 {
				if e, ok := m.tryMoveLower(d.Data()); ok {
					d.SetBases(e.Base, d.Access().Base)
					moved++
					spent += vtime.CostSwapIn/4 + vtime.Cycles(d.DataLen/64)
					progress = true
				}
			}
			if d.AccessSlots > 0 {
				if e, ok := m.tryMoveLower(d.Access()); ok {
					d.SetBases(d.Data().Base, e.Base)
					moved++
					spent += vtime.CostSwapIn/4 + vtime.Cycles(d.Access().Len/64)
					progress = true
				}
			}
		}
		if !progress {
			break
		}
	}
	if moved > 0 {
		m.Table.InvalidateCaches()
	}
	return moved, spent, nil
}

func (m *refSwapping) tryMoveLower(e mem.Extent) (mem.Extent, bool) {
	mem := m.Table.Memory()
	dst, err := mem.Alloc(e.Len)
	if err != nil {
		return e, false
	}
	if dst.Base >= e.Base {
		_ = mem.Free(dst)
		return e, false
	}
	copy(mem.Window(dst), mem.Window(e))
	_ = mem.Free(e)
	return dst, true
}

// sameFault reports whether two accesses were refused alike: neither, or
// both with the same fault.
func sameFault(f, rf *obj.Fault) bool {
	if f == nil || rf == nil {
		return f == rf
	}
	return *f == *rf
}

// sameWorlds compares everything an operation can change: every
// descriptor, the resident set against a full-table scan, mem's free-list
// shape, the bytes and capabilities readable through every AD handed out
// (or the fault that refuses them), the number of events emitted, and the
// store — one image per swapped-out descriptor under its token, no other,
// which the auditor's object check states.
func sameWorlds(real, ref *swapWorld) error {
	if real.tab.Len() != ref.tab.Len() || real.tab.Live() != ref.tab.Live() {
		return fmt.Errorf("table: %d slots, %d live; reference %d, %d", real.tab.Len(), real.tab.Live(), ref.tab.Len(), ref.tab.Live())
	}
	walk := real.tab.NextResident(obj.NilIndex)
	for i := 1; i < ref.tab.Len(); i++ {
		idx := obj.Index(i)
		d, rd := real.tab.DescriptorAt(idx), ref.tab.DescriptorAt(idx)
		if (d == nil) != (rd == nil) || d != nil && *d != *rd {
			return fmt.Errorf("descriptor %d: %+v, reference %+v", idx, d, rd)
		}
		if rd != nil && !rd.SwappedOut() {
			if walk != idx {
				return fmt.Errorf("resident walk reached %d, the table's next resident is %d", walk, idx)
			}
			walk = real.tab.NextResident(walk)
		}
	}
	if walk != obj.NilIndex {
		return fmt.Errorf("resident walk reached %d past the table's last resident", walk)
	}
	m, rm := real.tab.Memory(), ref.tab.Memory()
	if m.FragCount() != rm.FragCount() || m.LargestFree() != rm.LargestFree() || m.Used() != rm.Used() {
		return fmt.Errorf("free list: %d fragments, largest %d, %d used; reference %d, %d, %d",
			m.FragCount(), m.LargestFree(), m.Used(), rm.FragCount(), rm.LargestFree(), rm.Used())
	}
	if len(real.ads) != len(ref.ads) {
		return fmt.Errorf("%d capabilities handed out, reference %d", len(real.ads), len(ref.ads))
	}
	for i, ad := range real.ads {
		if ad != ref.ads[i] {
			return fmt.Errorf("allocation %d returned %v, reference %v", i, ad, ref.ads[i])
		}
		d, f := real.tab.Resolve(ad)
		if f != nil {
			continue // dead in both: the descriptors are equal
		}
		data, f := real.tab.ReadBytes(ad, 0, d.DataLen)
		rdata, rf := ref.tab.ReadBytes(ad, 0, d.DataLen)
		if !bytes.Equal(data, rdata) || !sameFault(f, rf) {
			return fmt.Errorf("%v data part: %x (%v), reference %x (%v)", ad, data, f, rdata, rf)
		}
		for slot := uint32(0); slot < uint32(d.AccessSlots); slot++ {
			held, f := real.tab.LoadAD(ad, slot)
			rheld, rf := ref.tab.LoadAD(ad, slot)
			if held != rheld || !sameFault(f, rf) {
				return fmt.Errorf("%v slot %d: %v (%v), reference %v (%v)", ad, slot, held, f, rheld, rf)
			}
		}
	}
	if real.log.Seq() != ref.log.Seq() {
		return fmt.Errorf("%d events emitted, reference %d", real.log.Seq(), ref.log.Seq())
	}
	if vs := (&audit.Auditor{Table: real.tab}).CheckObjects(); len(vs) > 0 {
		return fmt.Errorf("audit: %v", vs[0])
	}
	return nil
}

// denseOps is a corpus entry of the largest two-part objects, each tagged at
// both ends of its data part and linked in its last access slot, so that
// their images are both parts whole: the sequence allocates them under
// pressure, evicts, touches and compacts them in turn, and the reference's
// whole-segment images meet the store's prefixes where nothing is cut.
func denseOps() []byte {
	var ops []byte
	for i := 0; i < 48; i++ {
		ops = append(ops, 0, 26+byte(i%2)) // allocate: 4096 or 9000 data bytes, 16 access slots
		ops = append(ops, 10, 0, 12, byte(i))
		if i%8 == 7 {
			ops = append(ops, 14, 0)
		}
	}
	return ops
}

// pristineOps is a corpus entry whose worlds allocate untouched (see
// untouched in FuzzSwapCompact): objects of every swappable shape, created
// under pressure and evicted without a byte written, then compacted, and a
// few of them touched, which writes them, and evicted again: the store's
// images taken as empty unread, and measured ones beside them, meet the
// reference's whole-segment copies.
func pristineOps() []byte {
	var ops []byte
	for i := 0; i < 60; i++ {
		ops = append(ops, 0, byte(i*11%208)) // allocate: below 208 no anchor and nothing pinned
		if i%3 == 2 {
			ops = append(ops, 10, 0) // evict
		}
	}
	ops = append(ops, 14, 0)
	for i := 0; i < 8; i++ {
		ops = append(ops, 12, byte(i*29), 10, 0, 10, 0) // touch one, evict two
	}
	for i := 0; i < 16; i++ {
		ops = append(ops, 10, 0) // round the clock to the touched ones
	}
	ops = append(ops, 14, 0)
	if len(ops)%4 != 2 {
		ops = append(ops, 11, 0) // evict
	}
	return ops
}

// fuzzStep is step, except that a kind byte of heldRun or above is a
// run of 1 to 8 creates through one opened heap (the root, or for an odd
// arg the local heap): the manager evicts and retries on that view for
// every create of the run. The witness drives step alone.
func (w *swapWorld) fuzzStep(kind, arg byte) string {
	if kind < heldRun {
		return w.step(kind, arg)
	}
	w.n++
	heap := w.root
	if arg%2 == 1 && w.local.Valid() {
		heap = w.local
	}
	var hv obj.View
	w.sros.Open(heap, &hv)
	out := "run:"
	for i := 0; i <= int(kind-heldRun); i++ {
		spec := witnessSpec(arg + byte(37*i))
		ad, f := w.m.AllocateIn(&hv, spec)
		if f != nil {
			return out + fmt.Sprintf(" allocate: %v", f)
		}
		out += " " + w.keep(ad, spec)
	}
	return out
}

// heldRun is the least kind byte fuzzStep takes for a run of creates.
const heldRun = 0xf8

// heldRunOps is a corpus entry of runs of creates through one opened heap
// under pressure, from the root heap and from a local one, with touches
// and compactions between them, so a run's evictions fall in the middle
// of the run.
func heldRunOps() []byte {
	ops := []byte{6, 0} // the local heap
	for i := 0; i < 40; i++ {
		ops = append(ops, heldRun+byte(i%8), byte(i*23))
		ops = append(ops, 12, byte(i*7))
		if i%10 == 9 {
			ops = append(ops, 14, 0)
		}
	}
	return ops
}

// straddle is the memory an odd-length input's worlds hold below their
// 64 KB, so that those straddle the host memory's first 2 MB chunk boundary
// and a compaction move can cross it. The unpaired last byte is not an
// operation; an even-length input's worlds, as the witness's, hold none.
const straddle = 2<<20 - 32<<10

func FuzzSwapCompact(f *testing.F) {
	for seed := int64(1); seed <= mmWitnessSeeds; seed++ {
		f.Add(witnessOps(seed))
	}
	f.Add(denseOps())
	f.Add(append(witnessOps(1), 0)) // 23 of its 155 compaction moves cross the boundary
	f.Add(pristineOps())
	f.Add(heldRunOps())
	f.Fuzz(func(t *testing.T, ops []byte) {
		below := uint32(0)
		if len(ops)%2 == 1 {
			below = straddle
		}
		// An input of 2 or 3 bytes past a multiple of four allocates
		// untouched. The reference reads no flag: it copies whole segments
		// either way.
		untouched := len(ops)%4 >= 2
		if len(ops) > 4*mmWitnessOps {
			ops = ops[:4*mmWitnessOps] // the trace ring holds this many operations' events
		}
		real := newSwapWorld(t, below, func(tab *obj.Table, s *sro.Manager) swapper { return NewSwapping(tab, s) })
		ref := newSwapWorld(t, below, func(tab *obj.Table, s *sro.Manager) swapper { return newRefSwapping(tab, s) })
		real.untouched, ref.untouched = untouched, untouched
		for i := 0; i+1 < len(ops); i += 2 {
			got, want := real.fuzzStep(ops[i], ops[i+1]), ref.fuzzStep(ops[i], ops[i+1])
			if got != want {
				t.Fatalf("op %d (%d, %d) returned %q, reference %q", i/2, ops[i], ops[i+1], got, want)
			}
			if err := sameWorlds(real, ref); err != nil {
				t.Fatalf("after op %d (%d, %d: %s): %v", i/2, ops[i], ops[i+1], got, err)
			}
		}
		var dump, rdump bytes.Buffer
		if err := real.log.Dump(&dump); err != nil {
			t.Fatal(err)
		}
		if err := ref.log.Dump(&rdump); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dump.Bytes(), rdump.Bytes()) {
			t.Fatalf("kernel traces differ:\n%s\nreference:\n%s", dump.Bytes(), rdump.Bytes())
		}
	})
}
