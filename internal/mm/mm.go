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
	"encoding/binary"

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

// DestroyHeap implements Allocator.
func (m *NonSwapping) DestroyHeap(heap obj.AD) (int, *obj.Fault) {
	return m.SROs.DestroyHeap(heap)
}

var _ Allocator = (*NonSwapping)(nil)
var _ Allocator = (*Swapping)(nil)

// BackingStore simulates the swapping device: at most one image per object
// index, named by the token its descriptor carries. An image is each part
// up to its last non-zero byte: a segment comes back into an extent that
// mem.Alloc has just zeroed (§2: the hardware zeroes fresh segments), so
// its zero tail need not travel, and a fresh object's image is empty. The
// store owns its buffers: an image is copied in from the memory window and
// back out to one, and the buffer of an image read back or released serves
// the next put, so a segment in transit never passes through a fresh Go
// slice. (The paper's testbed used disk; this keeps the code path and the
// cost model, which charges the full parts.)
type BackingStore struct {
	images []image  // by obj.Index; tok 0 marks no image
	spare  [][]byte // buffers of minSpare bytes, free for the next image that fits one
	large  [][]byte // larger buffers of images read back or released, newest last
	held   int
	next   uint64
}

type image struct {
	tok uint64
	buf []byte // the data part's non-zero prefix, then the access part's
	// kept is the data prefix's length in buf; dataLen and accessLen are
	// the parts' full lengths, which a swap-in must fill exactly.
	kept, dataLen, accessLen uint32
}

// Every image holds a buffer, an empty one too, and one of minSpare bytes
// serves any image that fits it: the prefixes of small objects, and of large
// ones written only near the front, so an image read back frees a buffer for
// the next one written out, whatever the two hold. Each pool keeps at most
// maxSpares buffers and is made with room for them, so a release never
// grows it.
const (
	minSpare  = 32
	maxSpares = 1024
)

// NewBackingStore returns an empty backing store.
func NewBackingStore() *BackingStore {
	return &BackingStore{
		spare: make([][]byte, 0, maxSpares),
		large: make([][]byte, 0, maxSpares),
		next:  1,
	}
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

// nonZero is the length of p up to and including its last non-zero byte.
func nonZero(p []byte) int {
	n := len(p)
	for n >= 8 && binary.LittleEndian.Uint64(p[n-8:n]) == 0 {
		n -= 8
	}
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return n
}

// buffer returns an empty buffer with room for n bytes: a spare of minSpare
// bytes, or a new one, when n fits one; else the newest larger spare that it
// fits and would at least half use. When none would, the newest is dropped,
// so the pool never outgrows the images read back.
func (b *BackingStore) buffer(n int) []byte {
	if n <= minSpare {
		if k := len(b.spare) - 1; k >= 0 {
			buf := b.spare[k]
			b.spare = b.spare[:k]
			return buf[:0]
		}
		return make([]byte, 0, minSpare)
	}
	last := len(b.large) - 1
	for k := last; k >= 0; k-- {
		if c := cap(b.large[k]); n <= c && c <= 2*n {
			buf := b.large[k]
			b.large[k] = b.large[last]
			b.large = b.large[:last]
			return buf[:0]
		}
	}
	if last >= 0 {
		b.large = b.large[:last]
	}
	return make([]byte, 0, n)
}

// put stores idx's image and returns its token. room is how many indices
// the table has room for: the store's index grows to it in one step, so it
// grows when the table does and not while a run evicts what set-up built.
func (b *BackingStore) put(idx obj.Index, room int, data, access []byte) uint64 {
	if int(idx) >= len(b.images) {
		b.images = append(b.images, make([]image, max(room, int(idx)+1)-len(b.images))...)
	}
	kept, akept := nonZero(data), nonZero(access)
	buf := b.buffer(kept + akept)
	tok := b.next
	b.next++
	b.images[idx] = image{
		tok:       tok,
		buf:       append(append(buf, data[:kept]...), access[:akept]...),
		kept:      uint32(kept),
		dataLen:   uint32(len(data)),
		accessLen: uint32(len(access)),
	}
	b.held++
	return tok
}

// get copies idx's image out to data and access and retires it, provided
// it is the image tok names and its parts are as long as the two. data and
// access are the extents Table.SwapIn has just taken from mem.Alloc, which
// zeroed them: only the prefixes are copied.
func (b *BackingStore) get(idx obj.Index, tok uint64, data, access []byte) bool {
	if tok == 0 || b.Token(idx) != tok {
		return false
	}
	im := &b.images[idx]
	if int(im.dataLen) != len(data) || int(im.accessLen) != len(access) {
		return false
	}
	copy(access, im.buf[copy(data, im.buf[:im.kept]):])
	b.Release(idx, tok)
	return true
}

// Release implements obj.Backing: idx's image goes if tok names it, and its
// buffer waits for the next put unless its pool is full.
func (b *BackingStore) Release(idx obj.Index, tok uint64) {
	if tok == 0 || b.Token(idx) != tok {
		return
	}
	pool := &b.spare
	if buf := b.images[idx].buf; cap(buf) > minSpare {
		pool = &b.large
	}
	if len(*pool) < maxSpares {
		*pool = append(*pool, b.images[idx].buf)
	}
	b.images[idx] = image{}
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

// Allocate implements Allocator: on physical exhaustion it evicts victims
// until the allocation fits, so virtual allocation can exceed physical
// memory up to the backing store's capacity.
func (m *Swapping) Allocate(heap obj.AD, spec obj.CreateSpec) (obj.AD, *obj.Fault) {
	for {
		ad, f := m.SROs.Create(heap, spec)
		if f == nil {
			return ad, nil
		}
		if f.Code != obj.FaultNoMemory {
			return obj.NilAD, f
		}
		if evicted, ef := m.evictOne(); ef != nil {
			return obj.NilAD, ef
		} else if !evicted {
			return obj.NilAD, f // nothing left to evict
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
		return m.Table.SwapOut(idx, 0)
	}
	phys := m.Table.Memory()
	data, access := phys.Window(d.Data()), phys.Window(d.Access())
	if data == nil || access == nil {
		return obj.Faultf(obj.FaultOddity, obj.AD{Index: idx}, "extents outside memory: data %v, access %v", d.Data(), d.Access())
	}
	tok := m.Store.put(idx, m.Table.Cap(), data, access)
	if f := m.Table.SwapOut(idx, tok); f != nil {
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
	phys := m.Table.Memory()
	// Under pressure memory is full, and the table's first answer would be
	// a no-memory fault built to be thrown away: while not even the larger
	// part has a hole, evict before asking. With nothing left to evict the
	// table says why.
	for need := max(d.DataLen, d.Access().Len); need > 0 && !phys.FitsBelow(need, mem.Addr(phys.Size())); {
		if evicted, ef := m.evictOne(); ef != nil {
			return ef
		} else if !evicted {
			break
		}
	}
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
