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

// BackingStore simulates the swapping device: a token-addressed byte
// store with transfer accounting. (The paper's testbed used disk; the
// substitution preserves the code path and the cost model.)
type BackingStore struct {
	images map[uint64]storedImage
	next   uint64

	// Stats.
	WritesBytes uint64
	ReadsBytes  uint64
	Ops         uint64
}

type storedImage struct {
	data   []byte
	access []byte
}

// NewBackingStore returns an empty backing store.
func NewBackingStore() *BackingStore {
	return &BackingStore{images: make(map[uint64]storedImage), next: 1}
}

// put stores an object image and returns its token.
func (b *BackingStore) put(data, access []byte) uint64 {
	tok := b.next
	b.next++
	b.images[tok] = storedImage{data: data, access: access}
	b.WritesBytes += uint64(len(data) + len(access))
	b.Ops++
	return tok
}

// get retrieves and removes an image.
func (b *BackingStore) get(tok uint64) (storedImage, bool) {
	img, ok := b.images[tok]
	if ok {
		delete(b.images, tok)
		b.ReadsBytes += uint64(len(img.data) + len(img.access))
		b.Ops++
	}
	return img, ok
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
	Compactions   uint64
	CompactMoves  uint64
	CompactCycles vtime.Cycles
}

// NewSwapping returns the swapping implementation.
func NewSwapping(t *obj.Table, s *sro.Manager) *Swapping {
	return &Swapping{Table: t, SROs: s, Store: NewBackingStore()}
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
// backing images.
func (m *Swapping) DestroyHeap(heap obj.AD) (int, *obj.Fault) {
	m.Table.AliveBySRO(heap.Index, func(i obj.Index) {
		if d := m.Table.DescriptorAt(i); d != nil && d.SwappedOut {
			_, _ = m.Store.get(d.SwapToken)
		}
	})
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
	if d == nil || d.SwappedOut || d.Pinned {
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
	if d == nil {
		return obj.Faultf(obj.FaultInvalidAD, obj.AD{Index: idx}, "no such object")
	}
	mem := m.Table.Memory()
	var data, access []byte
	var err error
	if d.DataLen > 0 {
		if data, err = mem.ReadBytes(d.Data, 0, d.DataLen); err != nil {
			return obj.Faultf(obj.FaultOddity, obj.AD{Index: idx}, "%v", err)
		}
	}
	if d.AccessSlots > 0 {
		if access, err = mem.ReadBytes(d.Access, 0, d.AccessSlots*obj.ADSlotSize); err != nil {
			return obj.Faultf(obj.FaultOddity, obj.AD{Index: idx}, "%v", err)
		}
	}
	tok := m.Store.put(data, access)
	if f := m.Table.SwapOut(idx, tok); f != nil {
		_, _ = m.Store.get(tok)
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
// false when nothing is swappable.
func (m *Swapping) EvictVictim() (victim obj.Index, ok bool, f *obj.Fault) {
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
			m.Evictions++
			return hand, true, m.swapOut(hand)
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
	if !d.SwappedOut {
		return nil
	}
	tok := d.SwapToken
	for {
		data, access, f := m.Table.SwapIn(idx)
		if f == nil {
			img, ok := m.Store.get(tok)
			if !ok {
				return obj.Faultf(obj.FaultOddity, obj.AD{Index: idx},
					"backing image %d missing", tok)
			}
			mem := m.Table.Memory()
			if len(img.data) > 0 {
				if err := mem.WriteBytes(data, 0, img.data); err != nil {
					return obj.Faultf(obj.FaultOddity, obj.AD{Index: idx}, "%v", err)
				}
			}
			if len(img.access) > 0 {
				if err := mem.WriteBytes(access, 0, img.access); err != nil {
					return obj.Faultf(obj.FaultOddity, obj.AD{Index: idx}, "%v", err)
				}
			}
			m.SwapIns++
			m.SwapCycles += transferCost(len(img.data) + len(img.access))
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
