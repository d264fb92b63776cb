// Package mem models the physical memory of the simulated 432 system: a
// single homogeneous address space shared by all processors (§3 of the
// paper: "a tightly coupled environment in which all processors see a single
// homogeneous memory").
//
// Memory is carved into segments of 1 byte to 128 KB (§2). The object layer
// (internal/obj) maps object descriptors onto segments; this package only
// knows about raw extents and free-space bookkeeping, which the storage
// resource objects (internal/sro) draw from.
//
// The host backs the address space with a directory of 2 MB chunks. A chunk
// is allocated by the first segment placed in it and is never moved or
// freed after, so the host holds the part of memory that segments have
// reached, not the configured size, and a window into a segment stays valid
// until the segment itself is freed or moved. Each chunk also holds the
// MaxSegment bytes past its end, so every segment is one contiguous window
// of the chunk its base lies in.
package mem

import (
	"errors"
	"fmt"
	"sort"
)

// Architecture limits from §2 of the paper.
const (
	// MaxSegment is the largest segment an object descriptor can
	// describe: 128 KB.
	MaxSegment = 128 * 1024
	// MaxPart is the largest data or access part of an object: 64 KB.
	MaxPart = 64 * 1024
)

// The host's chunk size: 2 MB, so a base's chunk is Base>>chunkShift.
const (
	chunkShift = 21
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// Addr is a physical byte address.
type Addr uint32

// Errors reported by the memory subsystem.
var (
	ErrNoMemory    = errors.New("mem: insufficient free storage")
	ErrBadSegment  = errors.New("mem: segment bounds violation")
	ErrSegTooLarge = fmt.Errorf("mem: segment exceeds %d bytes", MaxSegment)
	ErrNotOwned    = errors.New("mem: extent not allocated from this memory")
)

// Extent is a contiguous physical region [Base, Base+Len).
type Extent struct {
	Base Addr
	Len  uint32
}

// End returns the address one past the extent.
func (e Extent) End() Addr { return e.Base + Addr(e.Len) }

// Memory is the physical store. All mutation goes through Alloc/Free and
// the bounds-checked Read*/Write* accessors; processors never hold raw
// slices into it, mirroring the 432 rule that all addressing is via object
// descriptors.
//
// Memory is not safe for concurrent use; the lock-step processor driver
// (internal/gdp) serialises access, exactly as the single shared bus of the
// real machine did.
type Memory struct {
	// chunks[i] backs every segment based in [i·chunkSize, (i+1)·chunkSize)
	// and covers [i·chunkSize, min(size, (i+1)·chunkSize+MaxSegment)): the
	// tail past its range is also the next chunk's head, but extents are
	// disjoint, each is only ever read and written through its base's
	// chunk, and Alloc zeroes a fresh segment there, so no access sees a
	// byte's other copy. chunks[i] is nil until an Alloc places a segment
	// in it. The last entry is a nil sentinel for every base past the
	// memory.
	chunks [][]byte
	last   Addr // len(chunks)-1: the sentinel
	size   uint32
	free   []Extent // sorted by Base, coalesced
	used   uint32

	// What Settled compares against: the holes at the last Settle and
	// every extent Alloc placed since. Nothing is recorded before the
	// first Settle, so a memory nobody compacts pays one branch in Alloc.
	tracking bool
	settled  []Extent
	placed   []Extent
	below    []uint32 // Settled's scratch: below[i] is the longest hole of free[:i]
}

// New creates a physical memory of the given size in bytes. It allocates
// the first chunk, where first fit places the first segment; a memory of at
// most 2 MB is that one array.
func New(size uint32) *Memory {
	n := max(1, (uint64(size)+chunkMask)>>chunkShift)
	m := &Memory{
		chunks: make([][]byte, n+1),
		last:   Addr(n),
		size:   size,
		free:   []Extent{{Base: 0, Len: size}},
	}
	m.chunk(0)
	return m
}

// chunk returns the chunk that backs the segments based at b, allocating
// it on first use.
func (m *Memory) chunk(b Addr) []byte {
	i := b >> chunkShift
	if m.chunks[i] == nil {
		lo := uint64(i) << chunkShift
		m.chunks[i] = make([]byte, min(uint64(m.size), lo+chunkSize+MaxSegment)-lo)
	}
	return m.chunks[i]
}

// Size reports the total physical size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// Used reports the number of allocated bytes.
func (m *Memory) Used() uint32 { return m.used }

// LargestFree reports the size of the largest free extent; allocation of
// any larger segment will fail even if total free space suffices
// (external fragmentation).
func (m *Memory) LargestFree() uint32 {
	var max uint32
	for _, e := range m.free {
		if e.Len > max {
			max = e.Len
		}
	}
	return max
}

// FragCount reports the number of disjoint free extents, a direct measure
// of external fragmentation.
func (m *Memory) FragCount() int { return len(m.free) }

// Alloc carves a segment of n bytes from physical memory using first-fit,
// the policy simple enough to microcode (the 432 performed allocation in
// the create-object instruction, so the policy had to be trivial).
func (m *Memory) Alloc(n uint32) (Extent, error) {
	if n == 0 {
		n = 1 // §2: segments are from 1 byte
	}
	if n > MaxSegment {
		return Extent{}, ErrSegTooLarge
	}
	for i, e := range m.free {
		if e.Len < n {
			continue
		}
		got := Extent{Base: e.Base, Len: n}
		if e.Len == n {
			m.free = append(m.free[:i], m.free[i+1:]...)
		} else {
			m.free[i] = Extent{Base: e.Base + Addr(n), Len: e.Len - n}
		}
		m.used += n
		if m.tracking {
			m.placed = append(m.placed, got)
		}
		// The hardware zeroed fresh segments: a new object must not
		// leak a previous object's contents through a fresh
		// capability.
		off := got.Base & chunkMask
		clear(m.chunk(got.Base)[off : off+Addr(n)])
		return got, nil
	}
	return Extent{}, ErrNoMemory
}

// FitsBelow reports whether Alloc(n) would place its segment strictly below
// limit. The compactor asks before it allocates, so an extent with no
// fitting hole beneath it is not touched; the walk stops at the first hole
// at or above limit.
func (m *Memory) FitsBelow(n uint32, limit Addr) bool {
	for _, e := range m.free {
		if e.Base >= limit {
			break
		}
		if e.Len >= n {
			return true
		}
	}
	return false
}

// Settle records the holes as they are now and starts recording every
// extent Alloc places. The compactor calls it at the end of a pass, when no
// resident part has a hole below it at least as long as itself.
func (m *Memory) Settle() {
	m.tracking = true
	m.settled = append(m.settled[:0], m.free...)
	m.placed = m.placed[:0]
}

// Settled reports whether no extent can have a hole below it at least as
// long as itself, given that none had at the last Settle: a compaction pass
// would move nothing. It is false before the first Settle. It holds when
//
//   - (A) no hole is longer than the longest hole that, at the last Settle,
//     had its base at or below this hole's base. For every address the
//     longest hole below it has not grown, so what could not move then
//     still cannot; and
//   - (B) no extent placed since, and still wholly allocated, has a hole
//     below it at least as long as itself. One that overlaps a hole has
//     been freed.
func (m *Memory) Settled() bool {
	if !m.tracking {
		return false
	}
	var longest uint32 // of the settled holes at or below h
	j := 0
	for _, h := range m.free {
		for ; j < len(m.settled) && m.settled[j].Base <= h.Base; j++ {
			longest = max(longest, m.settled[j].Len)
		}
		if h.Len > longest {
			return false
		}
	}
	m.below = append(m.below[:0], 0)
	for _, h := range m.free {
		m.below = append(m.below, max(m.below[len(m.below)-1], h.Len))
	}
	for _, e := range m.placed {
		i := sort.Search(len(m.free), func(i int) bool { return m.free[i].Base >= e.Base })
		freed := i > 0 && m.free[i-1].End() > e.Base || i < len(m.free) && m.free[i].Base < e.End()
		if !freed && m.below[i] >= e.Len {
			return false
		}
	}
	return true
}

// Free returns an extent to the free pool, coalescing with neighbours.
// Freeing an extent that was not allocated (or double-freeing) is an error:
// on the real machine only the microcode and the collector could reach this
// path, so corruption here meant a hardware fault.
func (m *Memory) Free(e Extent) error {
	if e.Len == 0 {
		return nil
	}
	if e.End() > Addr(m.size) || e.End() < e.Base {
		return ErrNotOwned
	}
	// Find insertion point in the sorted free list.
	i := sort.Search(len(m.free), func(i int) bool { return m.free[i].Base >= e.Base })
	// Overlap checks against predecessor and successor detect double
	// frees.
	if i > 0 && m.free[i-1].End() > e.Base {
		return fmt.Errorf("%w: overlaps free extent at %d", ErrNotOwned, m.free[i-1].Base)
	}
	if i < len(m.free) && e.End() > m.free[i].Base {
		return fmt.Errorf("%w: overlaps free extent at %d", ErrNotOwned, m.free[i].Base)
	}
	m.free = append(m.free, Extent{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = e
	m.used -= e.Len
	m.coalesce(i)
	return nil
}

// coalesce merges the free extent at index i with adjacent extents.
func (m *Memory) coalesce(i int) {
	// Merge with successor first so index i stays valid.
	if i+1 < len(m.free) && m.free[i].End() == m.free[i+1].Base {
		m.free[i].Len += m.free[i+1].Len
		m.free = append(m.free[:i+1], m.free[i+2:]...)
	}
	if i > 0 && m.free[i-1].End() == m.free[i].Base {
		m.free[i-1].Len += m.free[i].Len
		m.free = append(m.free[:i], m.free[i+1:]...)
	}
}

// WriteBytes copies p into the segment starting at offset off.
func (m *Memory) WriteBytes(e Extent, off uint32, p []byte) error {
	w, n := m.Window(e), uint32(len(p))
	if w == nil || off+n < off || off+n > e.Len {
		return fmt.Errorf("%w: [%d,%d) in segment of %d bytes", ErrBadSegment, off, off+n, e.Len)
	}
	copy(w[off:], p)
	return nil
}

// Window returns a direct byte view over extent e, for the interpreter's
// execution cache. It is the one sanctioned exception to the "no raw
// slices" rule above, and it is safe only because a chunk is allocated once
// and never moved: the view stays valid until the extent itself is freed or
// moved, which the object layer signals through its cache generation. An
// extent past the memory, overflowing, in a chunk no segment was ever
// placed in, or reaching more than MaxSegment past its base's chunk gets
// nil; the zero-length extent at 0 gets an empty view.
//
// Window is on every checked access, so it stays inlinable, and so does
// obj's accessOf around it: the base indexes the directory clamped to its
// sentinel, and one length test does the rest.
func (m *Memory) Window(e Extent) []byte {
	c := m.chunks[min(e.Base>>chunkShift, m.last)]
	off := uint64(e.Base & chunkMask)
	end := off + uint64(e.Len)
	if end > uint64(len(c)) {
		return nil
	}
	return c[off:end:end]
}
