// Package mm is iMAX's memory management layer (§6.2 of the paper),
// demonstrating configurability by alternate implementation: "Virtually
// all processes make use of memory management facilities via a standard
// interface ... A single Ada specification defines the common interface
// ... Both a swapping and a non-swapping implementation meet this
// specification but are optimized internally to the level of function
// they provide."
//
// Allocator is that single specification. NonSwapping is the first-
// release implementation (§9); Swapping adds a backing store, victim
// eviction and a segment-fault service so that virtual space can exceed
// physical memory. Most applications cannot tell which one the system was
// configured with — the E9 experiment runs the same workload on both.
package mm

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/sro"
	"repro/internal/vtime"
)

// Allocator is the common memory-management specification: stack
// allocation is implicit in contexts (internal/process), so the interface
// covers the global-heap and local-heap mechanisms of §5.
type Allocator interface {
	// Name identifies the configured implementation.
	Name() string
	// NewHeap creates a global (level-0) heap with the given claim.
	NewHeap(claim uint32) (obj.AD, *obj.Fault)
	// NewLocalHeap creates a local heap producing objects at the given
	// level.
	NewLocalHeap(parent obj.AD, level obj.Level, claim uint32) (obj.AD, *obj.Fault)
	// Allocate creates an object from the heap.
	Allocate(heap obj.AD, spec obj.CreateSpec) (obj.AD, *obj.Fault)
	// AllocateIn creates an object from the heap opened in hv
	// (sro.Manager.Open): the heap is resolved once for a run of creates.
	AllocateIn(hv *obj.View, spec obj.CreateSpec) (obj.AD, *obj.Fault)
	// DestroyHeap bulk-reclaims a local heap.
	DestroyHeap(heap obj.AD) (int, *obj.Fault)
}

// NonSwapping is the first-release implementation: a thin, fast layer
// over the SRO mechanism. Allocation fails outright when physical memory
// or the storage claim is exhausted.
type NonSwapping struct {
	SROs *sro.Manager
}

// NewNonSwapping returns the non-swapping implementation.
func NewNonSwapping(s *sro.Manager) *NonSwapping { return &NonSwapping{SROs: s} }

// Name implements Allocator.
func (m *NonSwapping) Name() string { return "non-swapping" }

// NewHeap implements Allocator.
func (m *NonSwapping) NewHeap(claim uint32) (obj.AD, *obj.Fault) {
	return m.SROs.NewGlobalHeap(claim)
}

// NewLocalHeap implements Allocator.
func (m *NonSwapping) NewLocalHeap(parent obj.AD, level obj.Level, claim uint32) (obj.AD, *obj.Fault) {
	return m.SROs.NewLocalHeap(parent, level, claim)
}

// Allocate implements Allocator.
func (m *NonSwapping) Allocate(heap obj.AD, spec obj.CreateSpec) (obj.AD, *obj.Fault) {
	return m.SROs.Create(heap, spec)
}

// AllocateIn implements Allocator.
func (m *NonSwapping) AllocateIn(hv *obj.View, spec obj.CreateSpec) (obj.AD, *obj.Fault) {
	return m.SROs.CreateIn(hv, spec)
}

// DestroyHeap implements Allocator.
func (m *NonSwapping) DestroyHeap(heap obj.AD) (int, *obj.Fault) {
	return m.SROs.DestroyHeap(heap)
}

var _ Allocator = (*NonSwapping)(nil)
var _ Allocator = (*Swapping)(nil)

// BackingStore simulates the swapping device: at most one image per object
// index, named by the token its descriptor carries. An image is each part
// up to its last non-zero byte: a segment comes back into a hole, and every
// hole reads zero (mem.Memory.Free zeroes what it frees), so its zero tail
// need not travel, and a fresh object's image is empty. The same prefixes
// are all the swap-out's free has to zero. An object the table still flags
// pristine (obj.FlagPristine) has never been written, so its prefixes are
// taken as empty without reading either part. (The paper's testbed used disk;
// this keeps the code path and the cost model, which charges the full
// parts.)
//
// The store keeps its images in one arena of its own. An image is a
// pointer-free record in the index, which the collector does not scan, and a
// slot of the least power-of-two class from 16 bytes to 128 KB that holds
// its prefixes. Every image holds a slot, an empty one too: an object
// swapped out empty and again later, written near its front, takes the
// 16-byte class both times, so the second image reuses a slot an image read
// back freed. A class up to half a block carves its slots from blocks of 8
// KB; a larger class gets a block of exactly its own size. A block is
// allocated once and never grown or moved, and a slot freed goes onto its
// class's free list, threaded through the slot's own first four bytes, for
// the next image of that class: the arena holds each class at its high-water
// mark, as mem holds the chunks segments have reached, and a segment in
// transit is copied between the mem.Window and a slot, never through a fresh
// slice.
type BackingStore struct {
	images []image            // by obj.Index; tok 0 marks no image
	blocks [][]byte           // the arena
	free   [numClasses]uint32 // each class's newest freed slot; noSlot ends a list
	carve  [numCarved]uint32  // each carved class's next slot; offset 0 wants a new block
	held   int
	next   uint64
}

// image is an index record: 24 bytes and no pointer.
type image struct {
	tok  uint64
	slot uint32 // the block's number above blockShift, the offset in it below
	n    uint32 // bytes held: the data part's non-zero prefix, then the access part's
	kept uint32 // the data prefix's length
	// lens holds the parts' full lengths, which a swap-in must fill
	// exactly: the data part's in the low dataBits, the access part's in
	// ADs above them.
	lens uint32
}

const (
	blockShift = 13 // 8 KB blocks
	blockSize  = 1 << blockShift
	minShift   = 4                     // 16-byte slots, room for the free-list link
	numClasses = 18 - minShift         // to 128 KB: both parts of mem.MaxPart
	numCarved  = blockShift - minShift // the classes to half a block
	noSlot     = ^uint32(0)            // no slot starts at the last byte of a block

	// The longest data part, mem.MaxPart, is 1<<16 bytes, and the longest
	// access part 1<<13 ADs: 17 bits and 14.
	dataBits = 17
)

func (im *image) dataLen() int   { return int(im.lens & (1<<dataBits - 1)) }
func (im *image) accessLen() int { return int(im.lens>>dataBits) * obj.ADSlotSize }

// NewBackingStore returns an empty backing store.
func NewBackingStore() *BackingStore {
	b := &BackingStore{next: 1}
	for c := range b.free {
		b.free[c] = noSlot
	}
	return b
}

// Images implements obj.Backing: how many images the store holds.
func (b *BackingStore) Images() int { return b.held }

// Token implements obj.Backing: the token of idx's image, 0 for none.
func (b *BackingStore) Token(idx obj.Index) uint64 {
	if int(idx) >= len(b.images) {
		return 0
	}
	return b.images[idx].tok
}

// zeros is what nonZero compares a part's candidate tail against.
var zeros [mem.MaxPart]byte

// nonZero is the length of p up to and including its last non-zero byte.
// A part longer than 64 bytes whose last word reads zero, as most evicted
// parts do, halves its candidate tail with bytes.Equal against zeros, which
// the runtime compares in vector registers, until at most 64 bytes are left
// to the word and byte loops. The halving keeps p[n:] zero and, once lo has
// moved, a non-zero byte in p[lo:n]; a part that ends non-zero returns
// after its first word test, as before.
func nonZero(p []byte) int {
	n := len(p)
	if n > 64 && binary.LittleEndian.Uint64(p[n-8:]) == 0 {
		for lo := 0; n-lo > 64; {
			mid := lo + (n-lo)/2
			if bytes.Equal(p[mid:n], zeros[:n-mid]) {
				n = mid
			} else {
				lo = mid
			}
		}
	}
	for n >= 8 && binary.LittleEndian.Uint64(p[n-8:n]) == 0 {
		n -= 8
	}
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return n
}

// class is the class of the least slot that holds n bytes.
func class(n uint32) int {
	return bits.Len32((max(n, 1<<minShift) - 1) >> minShift)
}

// bytes returns the first n bytes of slot h.
func (b *BackingStore) bytes(h, n uint32) []byte {
	off := h & (blockSize - 1)
	return b.blocks[h>>blockShift][off : off+n]
}

// take returns a slot of class c: the newest freed, else the next its
// block carves, else a new block's first.
func (b *BackingStore) take(c int) uint32 {
	if h := b.free[c]; h != noSlot {
		b.free[c] = binary.LittleEndian.Uint32(b.bytes(h, 4))
		return h
	}
	size := uint32(1) << (c + minShift)
	if c >= numCarved {
		b.blocks = append(b.blocks, make([]byte, size))
		return uint32(len(b.blocks)-1) << blockShift
	}
	if b.carve[c]&(blockSize-1) == 0 {
		b.blocks = append(b.blocks, make([]byte, blockSize))
		b.carve[c] = uint32(len(b.blocks)-1) << blockShift
	}
	h := b.carve[c]
	b.carve[c] += size // past the block's end the offset wraps to 0
	return h
}

// put stores idx's image and returns its token. room is how many indices
// the table has room for: the store's index grows to it in one step, so it
// grows when the table does and not while a run evicts what set-up built.
// access is a whole number of AD slots. pristine says both parts read
// zero, which nonZero need not confirm. An image still at idx, which a
// swap-in refused by get leaves behind, gives its slot back first.
func (b *BackingStore) put(idx obj.Index, room int, data, access []byte, pristine bool) uint64 {
	if int(idx) >= len(b.images) {
		b.images = append(b.images, make([]image, max(room, int(idx)+1)-len(b.images))...)
	}
	b.Release(idx, b.images[idx].tok)
	kept, akept := 0, 0
	if !pristine {
		kept, akept = nonZero(data), nonZero(access)
	}
	n := uint32(kept + akept)
	h := b.take(class(n))
	s := b.bytes(h, n)
	copy(s[copy(s, data[:kept]):], access[:akept])
	tok := b.next
	b.next++
	b.images[idx] = image{
		tok:  tok,
		slot: h,
		n:    n,
		kept: uint32(kept),
		lens: uint32(len(data)) | uint32(len(access)/obj.ADSlotSize)<<dataBits,
	}
	b.held++
	return tok
}

// get copies idx's image out to data and access and retires it, provided
// it is the image tok names and its parts are as long as the two. data and
// access are the extents Table.SwapIn has just taken from mem.Alloc, out of
// holes that read zero: only the prefixes are copied.
func (b *BackingStore) get(idx obj.Index, tok uint64, data, access []byte) bool {
	if tok == 0 || b.Token(idx) != tok {
		return false
	}
	im := &b.images[idx]
	if im.dataLen() != len(data) || im.accessLen() != len(access) {
		return false
	}
	s := b.bytes(im.slot, im.n)
	copy(access, s[copy(data, s[:im.kept]):])
	b.Release(idx, tok)
	return true
}

// Release implements obj.Backing: idx's image goes if tok names it, and its
// slot heads its class's free list.
func (b *BackingStore) Release(idx obj.Index, tok uint64) {
	if tok == 0 || b.Token(idx) != tok {
		return
	}
	im := &b.images[idx]
	c := class(im.n)
	binary.LittleEndian.PutUint32(b.bytes(im.slot, 4), b.free[c])
	b.free[c] = im.slot
	*im = image{}
	b.held--
}

// Swapping is the second-release implementation: the same interface, but
// allocation pressure evicts victim objects to the backing store, and
// segment faults bring them back (§6.2, §7.3). It provides the additional
// management interface (Stats, EnsureResident) that "can be used by
// resource managers or others that need information specific to the
// implementation".
type Swapping struct {
	Table *obj.Table
	SROs  *sro.Manager
	Store *BackingStore

	clockHand obj.Index

	// Stats.
	SwapOuts   uint64
	SwapIns    uint64
	SwapCycles vtime.Cycles
	// Evictions counts pressure-driven victim selections (EvictVictim
	// calls that found a victim), whether triggered by a failed
	// allocation or forced externally.
	Evictions uint64
	// FaultsServiced counts segment faults restored to residency by the
	// fault-handler service (FaultHandlerBody).
	FaultsServiced uint64
	// Compactions and CompactMoves count Compact passes and the segment
	// parts they relocated; CompactCycles is their charged virtual time.
	// CompactVisits counts the resident descriptors they walked, uncharged.
	Compactions   uint64
	CompactMoves  uint64
	CompactCycles vtime.Cycles
	CompactVisits uint64
}

// NewSwapping returns the swapping implementation. Its store becomes the
// table's backing, so that an object destroyed while swapped out — by the
// collector, by level or SRO reclaim, by anyone — gives its image back.
func NewSwapping(t *obj.Table, s *sro.Manager) *Swapping {
	m := &Swapping{Table: t, SROs: s, Store: NewBackingStore()}
	t.SetBacking(m.Store)
	return m
}

// Name implements Allocator.
func (m *Swapping) Name() string { return "swapping" }

// NewHeap implements Allocator.
func (m *Swapping) NewHeap(claim uint32) (obj.AD, *obj.Fault) {
	return m.SROs.NewGlobalHeap(claim)
}

// NewLocalHeap implements Allocator.
func (m *Swapping) NewLocalHeap(parent obj.AD, level obj.Level, claim uint32) (obj.AD, *obj.Fault) {
	return m.SROs.NewLocalHeap(parent, level, claim)
}

// DestroyHeap implements Allocator. Swapped-out members release their
// backing images as their descriptors die (obj.Backing).
func (m *Swapping) DestroyHeap(heap obj.AD) (int, *obj.Fault) {
	return m.SROs.DestroyHeap(heap)
}

// Allocate implements Allocator.
func (m *Swapping) Allocate(heap obj.AD, spec obj.CreateSpec) (obj.AD, *obj.Fault) {
	var hv obj.View
	m.SROs.Open(heap, &hv)
	return m.AllocateIn(&hv, spec)
}

// AllocateIn implements Allocator: on physical exhaustion it evicts victims
// until the allocation fits, so virtual allocation can exceed physical
// memory up to the backing store's capacity. While no hole holds even the
// larger part the create fails for certain, so it evicts without asking; a
// part past mem.MaxPart fits no hole, and it is the table's to refuse. hv
// stays good across the evictions: swappable admits no SRO, and a chunk of
// memory never moves.
func (m *Swapping) AllocateIn(hv *obj.View, spec obj.CreateSpec) (obj.AD, *obj.Fault) {
	oversize := spec.DataLen > mem.MaxPart || spec.AccessSlots > obj.MaxAccessSlots
	need := max(spec.DataLen, spec.AccessSlots*obj.ADSlotSize)
	for {
		if oversize || !m.fitsNowhere(need) {
			ad, f := m.SROs.CreateIn(hv, spec)
			if f == nil || f.Code != obj.FaultNoMemory {
				return ad, f
			}
		}
		if evicted, ef := m.evictOne(); ef != nil {
			return obj.NilAD, ef
		} else if !evicted {
			return m.SROs.CreateIn(hv, spec) // nothing left to evict: the table says why
		}
	}
}

// swappable reports whether the object at idx may be evicted. Hardware
// anchor types stay resident: a swapped-out port or process would deadlock
// the machinery that must run to bring it back.
func (m *Swapping) swappable(idx obj.Index) bool {
	d := m.Table.DescriptorAt(idx)
	if d == nil || d.Flags&(obj.FlagSwappedOut|obj.FlagPinned) != 0 {
		return false
	}
	switch d.Type {
	case obj.TypeGeneric, obj.TypeInstruction, obj.TypeTDO:
		return d.DataLen > 0 || d.AccessSlots > 0
	}
	return false
}

// fitsNowhere reports whether no hole holds a part of need bytes. Under
// pressure memory is full, and the table's first answer to a part that long
// would be a no-memory fault built to be thrown away, so a caller evicts
// before it asks.
func (m *Swapping) fitsNowhere(need uint32) bool {
	phys := m.Table.Memory()
	return need > 0 && !phys.FitsBelow(need, mem.Addr(phys.Size()))
}

// evictOne selects a victim by clock sweep and swaps it out. It reports
// false when no victim exists.
func (m *Swapping) evictOne() (bool, *obj.Fault) {
	_, ok, f := m.EvictVictim()
	return ok, f
}

// swapOut writes the object's image to the backing store and releases its
// physical memory.
func (m *Swapping) swapOut(idx obj.Index) *obj.Fault {
	d := m.Table.DescriptorAt(idx)
	if d == nil || d.SwappedOut() {
		// The table's refusal, before the store's image of idx is written over.
		return m.Table.SwapOut(idx, 0, 0, 0)
	}
	phys := m.Table.Memory()
	data, access := phys.Window(d.Data()), phys.Window(d.Access())
	if data == nil || access == nil {
		return obj.Faultf(obj.FaultOddity, obj.AD{Index: idx}, "extents outside memory: data %v, access %v", d.Data(), d.Access())
	}
	tok := m.Store.put(idx, m.Table.Cap(), data, access, d.Pristine())
	im := &m.Store.images[idx]
	if f := m.Table.SwapOut(idx, tok, im.kept, im.n-im.kept); f != nil {
		m.Store.Release(idx, tok)
		return f
	}
	m.SwapOuts++
	m.SwapCycles += transferCost(len(data) + len(access))
	return nil
}

// EvictVictim swaps out the next clock-sweep victim on demand and reports
// its index, without waiting for allocation pressure. Resource managers use
// it to shed memory ahead of need, and the fault-injection harness uses it
// to force a swap-out between two instructions of a running process. ok is
// false when nothing is swappable. The hand sweeps the resident set, not
// the table: from the last victim to the end, then round from the start.
func (m *Swapping) EvictVictim() (victim obj.Index, ok bool, f *obj.Fault) {
	for _, from := range [2]obj.Index{m.clockHand, obj.NilIndex} {
		for hand := m.Table.NextResident(from); hand != obj.NilIndex; hand = m.Table.NextResident(hand) {
			if m.swappable(hand) {
				m.clockHand = hand
				m.Evictions++
				return hand, true, m.swapOut(hand)
			}
		}
	}
	return obj.NilIndex, false, nil
}

// EnsureResident brings a swapped-out object back into physical memory,
// evicting other victims if necessary. It is idempotent: a resident
// object returns immediately. This is the segment-fault service of §7.3.
func (m *Swapping) EnsureResident(idx obj.Index) *obj.Fault {
	d := m.Table.DescriptorAt(idx)
	if d == nil {
		return obj.Faultf(obj.FaultInvalidAD, obj.AD{Index: idx}, "no such object")
	}
	if !d.SwappedOut() {
		return nil
	}
	tok := d.SwapToken()
	// With nothing left to evict the table says why.
	for m.fitsNowhere(max(d.DataLen, d.Access().Len)) {
		if evicted, ef := m.evictOne(); ef != nil {
			return ef
		} else if !evicted {
			break
		}
	}
	phys := m.Table.Memory()
	for {
		data, access, f := m.Table.SwapIn(idx)
		if f == nil {
			if !m.Store.get(idx, tok, phys.Window(data), phys.Window(access)) {
				return obj.Faultf(obj.FaultOddity, obj.AD{Index: idx},
					"backing image %d missing", tok)
			}
			m.SwapIns++
			m.SwapCycles += transferCost(int(data.Len + access.Len))
			return nil
		}
		if f.Code != obj.FaultNoMemory {
			return f
		}
		evicted, ef := m.evictOne()
		if ef != nil {
			return ef
		}
		if !evicted {
			return f
		}
	}
}

// transferCost models the backing-store transfer: a fixed seek plus a
// per-KB streaming cost (vtime constants).
func transferCost(bytes int) vtime.Cycles {
	return vtime.CostSwapIn + vtime.CostSwapPerKB*vtime.Cycles((bytes+1023)/1024)
}
