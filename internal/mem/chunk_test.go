package mem

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// flatMemory is the chunked memory's reference: the address space as one
// flat array, and the live extents in address order, from which first fit,
// the holes and the byte counts follow by brute force.
type flatMemory struct {
	bytes []byte
	live  []Extent // sorted by Base
}

// holes lists the free extents between the live ones.
func (f *flatMemory) holes() []Extent {
	var hs []Extent
	at := Addr(0)
	for _, e := range f.live {
		if e.Base > at {
			hs = append(hs, Extent{Base: at, Len: uint32(e.Base - at)})
		}
		at = e.End()
	}
	if size := Addr(len(f.bytes)); size > at {
		hs = append(hs, Extent{Base: at, Len: uint32(size - at)})
	}
	return hs
}

// alloc places n bytes first fit, zeroed, or reports no room.
func (f *flatMemory) alloc(n uint32) (Extent, bool) {
	for _, h := range f.holes() {
		if h.Len >= n {
			e := Extent{Base: h.Base, Len: n}
			clear(f.bytes[e.Base:e.End()])
			i := sort.Search(len(f.live), func(i int) bool { return f.live[i].Base > e.Base })
			f.live = append(f.live[:i], append([]Extent{e}, f.live[i:]...)...)
			return e, true
		}
	}
	return Extent{}, false
}

// agree compares everything the reference knows with m: the bookkeeping,
// and every live extent's window against the flat bytes.
func (f *flatMemory) agree(m *Memory) error {
	var used, largest uint32
	for _, e := range f.live {
		used += e.Len
	}
	hs := f.holes()
	for _, h := range hs {
		largest = max(largest, h.Len)
	}
	if m.Size() != uint32(len(f.bytes)) || m.Used() != used || m.LargestFree() != largest || m.FragCount() != len(hs) {
		return fmt.Errorf("size %d, used %d, largest hole %d, %d holes; reference %d, %d, %d, %d",
			m.Size(), m.Used(), m.LargestFree(), m.FragCount(), len(f.bytes), used, largest, len(hs))
	}
	for _, e := range f.live {
		if w := m.Window(e); w == nil || !bytes.Equal(w, f.bytes[e.Base:e.End()]) {
			return fmt.Errorf("extent %+v: window differs from the reference (nil: %v)", e, w == nil)
		}
	}
	return nil
}

// TestChunkedMemoryAgreesWithFlat runs random Alloc, Free and write
// sequences, writing through windows as the object layer does, on
// memories just below, at and just above one chunk, and over three chunks,
// against a flat reference. After every step each live extent reads as the
// reference, and the free-space counts agree; a fresh extent reads zero.
// Most segments are near MaxSegment, so the sequences reach the top of the
// larger memories and place extents across every chunk boundary.
func TestChunkedMemoryAgreesWithFlat(t *testing.T) {
	for _, size := range []uint32{chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 64<<10} {
		rng := rand.New(rand.NewSource(int64(size)))
		m := New(size)
		ref := &flatMemory{bytes: make([]byte, size)}
		crossed := 0
		for step := 0; step < 400; step++ {
			var what string
			switch r := rng.Intn(10); {
			case r < 5 || len(ref.live) == 0:
				n := uint32(1 + rng.Intn(4096))
				if rng.Intn(2) == 0 {
					n = MaxSegment - uint32(rng.Intn(1024))
				}
				what = fmt.Sprintf("alloc %d", n)
				e, err := m.Alloc(n)
				want, ok := ref.alloc(n)
				if (err == nil) != ok || ok && e != want {
					t.Fatalf("size %d step %d: %s placed %+v (%v), reference %+v (%v)", size, step, what, e, err, want, ok)
				}
				if ok && !bytes.Equal(m.Window(e), make([]byte, n)) {
					t.Fatalf("size %d step %d: fresh extent %+v does not read zero", size, step, e)
				}
				if ok && e.Base>>chunkShift != (e.End()-1)>>chunkShift {
					crossed++
				}
			case r < 7:
				i := rng.Intn(len(ref.live))
				e := ref.live[i]
				what = fmt.Sprintf("free %+v", e)
				if err := m.Free(e); err != nil {
					t.Fatalf("size %d step %d: %s: %v", size, step, what, err)
				}
				ref.live = append(ref.live[:i], ref.live[i+1:]...)
			default:
				e := ref.live[rng.Intn(len(ref.live))]
				off := uint32(rng.Intn(int(e.Len)))
				p := make([]byte, 1+rng.Intn(int(e.Len-off)))
				rng.Read(p)
				what = fmt.Sprintf("write %d bytes at %d of %+v", len(p), off, e)
				copy(ref.bytes[e.Base+Addr(off):], p)
				copy(m.Window(e)[off:], p)
			}
			if err := ref.agree(m); err != nil {
				t.Fatalf("size %d step %d, after %s: %v", size, step, what, err)
			}
		}
		if size > chunkSize+MaxSegment && crossed == 0 {
			t.Errorf("size %d: no extent was placed across a chunk boundary", size)
		}
	}
}

// TestChunkEdges pins the directory's edges: a largest segment based one
// byte below a chunk boundary is one window that keeps its bytes apart from
// the next chunk's head; an extent past the memory, overflowing, in a chunk
// nothing was placed in or past its chunk's tail has no window, on a memory
// of several chunks and on one of exactly one; and the zero-length extent
// at 0 has an empty one.
func TestChunkEdges(t *testing.T) {
	m := New(3*chunkSize + 64<<10)
	for at := uint32(0); at < chunkSize-1; {
		e, err := m.Alloc(min(MaxSegment, chunkSize-1-at))
		if err != nil {
			t.Fatal(err)
		}
		at = uint32(e.End())
	}
	straddle, err := m.Alloc(MaxSegment)
	if err != nil || straddle.Base != chunkSize-1 {
		t.Fatalf("the straddling segment was placed at %+v (%v), want base %d", straddle, err, chunkSize-1)
	}
	next, err := m.Alloc(64)
	if err != nil || next.Base>>chunkShift != 1 {
		t.Fatalf("the segment after it was placed at %+v (%v), want it in chunk 1", next, err)
	}
	pattern := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, MaxSegment/8)
	copy(m.Window(straddle), pattern)
	copy(m.Window(next), bytes.Repeat([]byte{0xee}, 64))
	if w := m.Window(straddle); len(w) != MaxSegment || cap(w) != MaxSegment || !bytes.Equal(w, pattern) {
		t.Errorf("the straddling segment reads back %d bytes (cap %d), equal to what was written: %v", len(w), cap(w), bytes.Equal(w, pattern))
	}
	if w := m.Window(next); !bytes.Equal(w, bytes.Repeat([]byte{0xee}, 64)) {
		t.Errorf("the segment in chunk 1 reads % x", w[:8])
	}
	if got := ChunksMade(m); got != 2 {
		t.Errorf("%d chunks made, want 2", got)
	}

	for _, m := range []*Memory{m, New(chunkSize)} {
		for _, c := range []struct {
			name string
			e    Extent
		}{
			{"based at the size", Extent{Base: Addr(m.Size()), Len: 1}},
			{"based past the size", Extent{Base: Addr(m.Size()) + chunkSize, Len: 1}},
			{"ending past the size", Extent{Base: Addr(m.Size()) - 8, Len: 16}},
			{"overflowing 32 bits", Extent{Base: chunkSize - 1, Len: math.MaxUint32}},
			{"in a chunk never placed in", Extent{Base: 2*chunkSize + 16, Len: 8}},
			{"reaching past its chunk's tail", Extent{Base: 0, Len: chunkSize + MaxSegment + 1}},
		} {
			if w := m.Window(c.e); w != nil {
				t.Errorf("%d-byte memory: an extent %s, %+v, has a %d-byte window", m.Size(), c.name, c.e, len(w))
			}
		}
		if w := m.Window(Extent{}); w == nil || len(w) != 0 {
			t.Errorf("%d-byte memory: the zero-length extent at 0 has window %v, want an empty non-nil one", m.Size(), w)
		}
	}
}
