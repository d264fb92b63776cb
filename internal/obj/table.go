package obj

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Color is the tri-colour marking state used by the on-the-fly collector
// (§8.1, after Dijkstra et al.). White objects are candidates for
// reclamation, black objects have been scanned, gray objects are reachable
// but not yet scanned. The mutator's only obligation is the gray bit,
// maintained by the AD-move microcode in StoreAD.
type Color uint8

const (
	White Color = iota
	Gray
	Black
)

func (c Color) String() string {
	switch c {
	case White:
		return "white"
	case Gray:
		return "gray"
	case Black:
		return "black"
	}
	return fmt.Sprintf("color(%d)", uint8(c))
}

// Descriptor is one entry in the global object descriptor table (§2): the
// single authoritative description of an object. There is exactly one
// descriptor per object, however many ADs reference it.
type Descriptor struct {
	Valid bool
	Type  Type
	// UserType names the type definition object (TDO) that gave this
	// object its user-defined type, or NilIndex for plain hardware
	// typing (§7.2: user types enjoy the same hardware guarantee).
	UserType Index
	Gen      uint32
	Level    Level
	// SRO is the storage resource object this object was allocated
	// from; its destruction bulk-frees the object (§5).
	SRO Index

	// Data is the data part (up to 64 KB); Access is the access part
	// holding AccessSlots encoded ADs of ADSlotSize bytes each.
	Data        mem.Extent
	DataLen     uint32
	Access      mem.Extent
	AccessSlots uint32

	// Garbage collection state (§8.1).
	Color Color
	// Pinned objects are roots the collector must never reclaim
	// (processor objects, the system directory).
	Pinned bool
	// Finalized records that the destruction filter (§8.2) has already
	// delivered this object to its type manager once; when it becomes
	// garbage again it reclaims normally.
	Finalized bool

	// Virtual memory state (§6.2). A swapped-out object's extents are
	// invalid; SwapToken names its image in the backing store. Access
	// raises FaultSegmentMoved for the memory manager to service.
	SwappedOut bool
	SwapToken  uint64
}

// Table is the global object descriptor table. All object creation,
// destruction and access flows through it; it owns physical memory.
//
// The table is not safe for unsynchronised concurrent use: the lock-step
// processor driver serialises all microcode, mirroring the single shared
// memory bus of the real machine.
type Table struct {
	mem   *mem.Memory
	descs []Descriptor
	free  []Index // free descriptor slots, reused with bumped generations
	live  int     // number of valid descriptors

	// resident is the resident set: bit i is set exactly when descs[i] is
	// Valid && !SwappedOut, written where those two fields are (Create,
	// destroyDesc, SwapOut, SwapIn). The memory manager walks it, not the
	// table: what can be evicted or moved is what is in memory (§6.2).
	resident []uint64
	backing  Backing // told when a descriptor dies swapped out; nil without a swapping manager

	// faults is the unused tail of the current segment-fault slab (see
	// whyNot); nil until the table first refuses an access to a swapped-out
	// object.
	faults []Fault

	// stats for the experiment harness
	created   uint64
	destroyed uint64
	adStores  uint64
	grayings  uint64

	// tr is the kernel event log. nil means tracing is disabled; every
	// emission site checks for nil locally so the disabled path is one
	// branch.
	tr *trace.Log

	// xgen is the cache-invalidation generation consumed by the
	// interpreter's execution cache (internal/gdp). Every operation that
	// could alias cached descriptor state — destruction (including SRO and
	// level reclaim), swap-out/in, extent moves during compaction, an AD
	// store into the context slot of a process or the code slot of a
	// domain, a user-reachable AD store into a context — bumps it; a cached
	// entry whose snapshot differs is dead. moveAD says why no other slot of
	// a process is on the list.
	xgen uint64
}

// NewTable creates an object table over a fresh physical memory of the
// given size. Entry 0 is reserved as the nil object.
func NewTable(memSize uint32) *Table {
	t := &Table{
		mem:   mem.New(memSize),
		descs: make([]Descriptor, 1, 1024),
	}
	return t
}

// Reserve makes room for n more descriptors and their bits of the resident
// set, so that the next n creates grow neither: a world constructor that
// knows how many objects it is about to create pays for one array, not for
// every doubling on the way to it.
func (t *Table) Reserve(n int) {
	if need := len(t.descs) + n; need > cap(t.descs) {
		t.descs = append(make([]Descriptor, 0, need), t.descs...)
	}
	if words := (len(t.descs) + n + 63) / 64; words > cap(t.resident) {
		t.resident = append(make([]uint64, 0, words), t.resident...)
	}
}

// Cap reports how many descriptors the table has room for before it next
// grows.
func (t *Table) Cap() int { return cap(t.descs) }

// Backing is the swapping manager's store as the table sees it: the owner
// of the image a swapped-out descriptor's SwapToken names.
type Backing interface {
	// Release discards the image held for the object at idx, which was
	// destroyed while swapped out under token.
	Release(idx Index, token uint64)
	// Token reports the token of the image held for idx (0: none) and
	// Images how many are held in all; the auditor reads both.
	Token(idx Index) uint64
	Images() int
}

// SetBacking installs the store that destruction releases images to.
func (t *Table) SetBacking(b Backing) { t.backing = b }

// Backing returns the installed store, or nil.
func (t *Table) Backing() Backing { return t.backing }

// Resident reports idx's bit of the resident set.
func (t *Table) Resident(idx Index) bool {
	return int(idx/64) < len(t.resident) && t.resident[idx/64]>>(idx%64)&1 != 0
}

// NextResident returns the lowest index above after whose segments are in
// memory, or NilIndex when there is none: a table-order walk of the
// resident set.
func (t *Table) NextResident(after Index) Index {
	i := uint(after) + 1
	for w := i / 64; w < uint(len(t.resident)); w++ {
		if word := t.resident[w] >> (i % 64); word != 0 {
			return Index(i + uint(bits.TrailingZeros64(word)))
		}
		i = (w + 1) * 64
	}
	return NilIndex
}

// ResidentCount reports the size of the resident set.
func (t *Table) ResidentCount() int {
	n := 0
	for _, w := range t.resident {
		n += bits.OnesCount64(w)
	}
	return n
}

// Memory exposes the underlying physical store to trusted subsystems (the
// memory manager and experiment harness); ordinary code addresses memory
// only through ADs.
func (t *Table) Memory() *mem.Memory { return t.mem }

// Live reports the number of valid objects.
func (t *Table) Live() int { return t.live }

// Len reports the number of table slots ever allocated (including free
// ones); the collector sweeps this range.
func (t *Table) Len() int { return len(t.descs) }

// Stats reports object-layer event counts used by the benchmarks.
func (t *Table) Stats() (created, destroyed, adStores, grayings uint64) {
	return t.created, t.destroyed, t.adStores, t.grayings
}

// SetTracer installs (or, with nil, removes) the kernel event log. The
// table is the one structure every subsystem already holds, so it carries
// the tracer for all of them.
func (t *Table) SetTracer(l *trace.Log) { t.tr = l }

// Tracer returns the installed kernel event log, possibly nil. Subsystems
// built over the table (ports, the collector, the process manager) emit
// their events through this.
func (t *Table) Tracer() *trace.Log { return t.tr }

// CacheGen reports the table's cache-invalidation generation. Holders of
// derived state (resolved descriptor windows, memoised operand views,
// predecoded programs) must snapshot it when priming and treat any later
// mismatch as invalidation.
//
// Pinned-window hazard note: the interpreter's execution cache
// (internal/gdp) retires runs of register, branch and load/store
// instructions over pinned mem.Window views with the instruction pointer
// deferred to the end of the run. Those runs are safe against exactly the
// hazards this generation covers — destroy, swap-out/in, compaction moves,
// AD stores into a process's context slot, a domain's code slot or
// (user-reachable) a context —
// because a run starts only from a cache whose generation was just checked,
// and nothing it retires can bump the generation. Any new table mutation
// that can invalidate a derived window or decoded program MUST bump xgen
// (directly or via InvalidateCaches), or the run loop will keep executing a
// world that no longer exists.
func (t *Table) CacheGen() uint64 { return t.xgen }

// InvalidateCaches bumps the cache-invalidation generation. Table-internal
// aliasing operations bump it themselves; external trusted mutators that
// bypass the table's methods (the compactor rewriting extents through
// DescriptorAt) must call this explicitly.
func (t *Table) InvalidateCaches() { t.xgen++ }

// Resolve validates an AD against the table: the entry must be live and
// the generation must match. It returns the descriptor for inspection.
// Mutation must go through the table's methods.
func (t *Table) Resolve(a AD) (*Descriptor, *Fault) {
	if !a.Valid() || int(a.Index) >= len(t.descs) {
		return nil, Faultf(FaultInvalidAD, a, "no such object")
	}
	d := &t.descs[a.Index]
	if !d.Valid || d.Gen&adGenMask != a.Gen&adGenMask {
		return nil, Faultf(FaultInvalidAD, a, "object destroyed (dangling capability)")
	}
	return d, nil
}

// present is the access rule, stated once: a names a table entry, the
// entry is live and of a's generation, a carries every right in want, and
// the object's segments are resident (§6.2). It returns the descriptor, or
// nil when any clause fails; whyNot then says which. It is small enough to
// inline into every accessor, so a reference costs a handful of compares.
func (t *Table) present(a AD, want Rights) *Descriptor {
	if a.Index == NilIndex || int(a.Index) >= len(t.descs) {
		return nil
	}
	d := &t.descs[a.Index]
	if !d.Valid || d.Gen&adGenMask != a.Gen&adGenMask || a.Rights&want != want || d.SwappedOut {
		return nil
	}
	return d
}

// faultSlab is the number of segment faults carved from one allocation.
// A swapping system raises one on most requests (§7.3), so taking each
// from the Go heap would cost a malloc a request; a slab of 256 (12 KB)
// costs one per 256 faults.
const faultSlab = 256

// whyNot diagnoses an access present refused (or one a View refuses on
// rights alone), walking the clauses in the order the hardware raises them:
// invalid AD, then rights, then FaultSegmentMoved for the memory manager
// to service. A segment fault is carved from the table's slab: each one
// is its own Fault, never written after it is returned, so a view's latch,
// the process it is delivered to and any observer that keeps it see what
// they would see of a fresh allocation.
func (t *Table) whyNot(a AD, want Rights) *Fault {
	d, f := t.Resolve(a)
	if f != nil {
		return f
	}
	if !a.Rights.Has(want) {
		return Faultf(FaultRights, a, "need %s", want&^a.Rights)
	}
	if len(t.faults) == 0 {
		t.faults = make([]Fault, faultSlab)
	}
	f, t.faults = &t.faults[0], t.faults[1:]
	*f = Fault{Code: FaultSegmentMoved, AD: a, Token: d.SwapToken}
	return f
}

// CreateSpec describes an object to create.
type CreateSpec struct {
	Type        Type
	UserType    Index // TDO, or NilIndex
	Level       Level
	SRO         Index // ancestral storage resource object
	DataLen     uint32
	AccessSlots uint32
	Pinned      bool
}

// Create allocates a new object: both parts from physical memory, a table
// slot (reusing freed slots with a fresh generation), and returns a fully
// privileged AD for it. This is the microcode half of the create-object
// instruction; internal/sro adds the storage-claim accounting and level
// assignment on top.
func (t *Table) Create(spec CreateSpec) (AD, *Fault) {
	if spec.Type == TypeInvalid || spec.Type >= numTypes {
		return NilAD, Faultf(FaultType, NilAD, "cannot create objects of %s", spec.Type)
	}
	if spec.DataLen > mem.MaxPart || spec.AccessSlots*ADSlotSize > mem.MaxPart {
		return NilAD, Faultf(FaultBounds, NilAD, "part exceeds 64KB (data %d, access %d slots)",
			spec.DataLen, spec.AccessSlots)
	}
	var data, access mem.Extent
	var err error
	if spec.DataLen > 0 {
		data, err = t.mem.Alloc(spec.DataLen)
		if err != nil {
			return NilAD, &Fault{Code: FaultNoMemory, Detail: noMemoryForData}
		}
	}
	if spec.AccessSlots > 0 {
		access, err = t.mem.Alloc(spec.AccessSlots * ADSlotSize)
		if err != nil {
			if spec.DataLen > 0 {
				_ = t.mem.Free(data)
			}
			return NilAD, &Fault{Code: FaultNoMemory, Detail: noMemoryForAccess}
		}
	}

	var idx Index
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.descs = append(t.descs, Descriptor{})
		idx = Index(len(t.descs) - 1)
		if int(idx/64) == len(t.resident) {
			t.resident = append(t.resident, 0)
		}
	}
	d := &t.descs[idx]
	gen := d.Gen + 1 // bump on reuse so stale ADs dangle detectably
	*d = Descriptor{
		Valid:       true,
		Type:        spec.Type,
		UserType:    spec.UserType,
		Gen:         gen,
		Level:       spec.Level,
		SRO:         spec.SRO,
		Data:        data,
		DataLen:     spec.DataLen,
		Access:      access,
		AccessSlots: spec.AccessSlots,
		// New objects are born gray: the collector may be mid-cycle,
		// and a white newborn referenced only from a black object
		// would be lost (standard on-the-fly allocation colour).
		Color:  Gray,
		Pinned: spec.Pinned,
	}
	t.resident[idx/64] |= 1 << (idx % 64)
	t.live++
	t.created++
	if l := t.tr; l != nil {
		l.Emit(trace.EvObjCreate, uint32(idx), uint32(spec.Type), uint64(spec.Level))
	}
	return AD{Index: idx, Gen: gen & adGenMask, Rights: RightsAll}, nil
}

// Destroy invalidates the object and returns its storage. It requires the
// Delete right. Destruction is how both the collector's sweep and SRO bulk
// reclamation (§5) dispose of objects; user code generally never calls it —
// objects are garbage collected (§8.1).
func (t *Table) Destroy(a AD) *Fault {
	d, f := t.Resolve(a)
	if f != nil {
		return f
	}
	if !a.Rights.Has(RightDelete) {
		return Faultf(FaultRights, a, "need %s", RightDelete)
	}
	return t.destroyDesc(a.Index, d)
}

// DestroyIndex invalidates the object at idx without a capability check;
// only the collector and SRO teardown use it (they operate below the
// capability discipline, as the real microcode did).
func (t *Table) DestroyIndex(idx Index) *Fault {
	if int(idx) >= len(t.descs) || idx == NilIndex {
		return Faultf(FaultInvalidAD, AD{Index: idx}, "no such object")
	}
	d := &t.descs[idx]
	if !d.Valid {
		return Faultf(FaultInvalidAD, AD{Index: idx}, "already destroyed")
	}
	return t.destroyDesc(idx, d)
}

func (t *Table) destroyDesc(idx Index, d *Descriptor) *Fault {
	t.xgen++ // the slot may be recycled; cached windows over it are dead
	if l := t.tr; l != nil {
		l.Emit(trace.EvObjDestroy, uint32(idx), uint32(d.Type), 0)
	}
	if !d.SwappedOut {
		if d.DataLen > 0 {
			if err := t.mem.Free(d.Data); err != nil {
				return Faultf(FaultOddity, AD{Index: idx}, "freeing data part: %v", err)
			}
		}
		if d.AccessSlots > 0 {
			if err := t.mem.Free(d.Access); err != nil {
				return Faultf(FaultOddity, AD{Index: idx}, "freeing access part: %v", err)
			}
		}
	} else if t.backing != nil {
		t.backing.Release(idx, d.SwapToken)
	}
	d.Valid = false
	d.SwappedOut = false
	t.resident[idx/64] &^= 1 << (idx % 64)
	t.free = append(t.free, idx)
	t.live--
	t.destroyed++
	return nil
}

// TypeOf reports the hardware type of the referenced object.
func (t *Table) TypeOf(a AD) (Type, *Fault) {
	d, f := t.Resolve(a)
	if f != nil {
		return TypeInvalid, f
	}
	return d.Type, nil
}

// UserTypeOf reports the TDO index labelling the object, or NilIndex.
func (t *Table) UserTypeOf(a AD) (Index, *Fault) {
	d, f := t.Resolve(a)
	if f != nil {
		return NilIndex, f
	}
	return d.UserType, nil
}

// LevelOf reports the lifetime level of the referenced object.
func (t *Table) LevelOf(a AD) (Level, *Fault) {
	d, f := t.Resolve(a)
	if f != nil {
		return 0, f
	}
	return d.Level, nil
}

// RequireType resolves a and faults unless the object has hardware type
// want. This is the checked-type path every type manager relies on.
func (t *Table) RequireType(a AD, want Type) (*Descriptor, *Fault) {
	d, f := t.Resolve(a)
	if f != nil {
		return nil, f
	}
	if d.Type != want {
		return nil, Faultf(FaultType, a, "have %s, need %s", d.Type, want)
	}
	return d, nil
}
