package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestAllocBasics(t *testing.T) {
	m := New(1024)
	e, err := m.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len != 100 {
		t.Fatalf("Len = %d, want 100", e.Len)
	}
	if m.Used() != 100 {
		t.Fatalf("Used = %d, want 100", m.Used())
	}
}

func TestAllocZeroIsOneByte(t *testing.T) {
	// §2: segments are from 1 byte; a zero-size request still yields a
	// distinct 1-byte segment.
	m := New(16)
	e, err := m.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len != 1 {
		t.Fatalf("Len = %d, want 1", e.Len)
	}
}

func TestAllocTooLarge(t *testing.T) {
	m := New(MaxSegment * 2)
	if _, err := m.Alloc(MaxSegment + 1); !errors.Is(err, ErrSegTooLarge) {
		t.Fatalf("err = %v, want ErrSegTooLarge", err)
	}
	if _, err := m.Alloc(MaxSegment); err != nil {
		t.Fatalf("exactly MaxSegment should allocate: %v", err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := New(256)
	if _, err := m.Alloc(200); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(100); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
	// But 56 bytes remain allocatable.
	if _, err := m.Alloc(56); err != nil {
		t.Fatal(err)
	}
}

func TestFreeCoalesce(t *testing.T) {
	m := New(300)
	a, _ := m.Alloc(100)
	b, _ := m.Alloc(100)
	c, _ := m.Alloc(100)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(c); err != nil {
		t.Fatal(err)
	}
	if m.FragCount() != 2 {
		t.Fatalf("FragCount = %d, want 2", m.FragCount())
	}
	if err := m.Free(b); err != nil {
		t.Fatal(err)
	}
	// a+b+c coalesce back into the single original extent.
	if m.FragCount() != 1 {
		t.Fatalf("FragCount = %d, want 1", m.FragCount())
	}
	if m.LargestFree() != 300 {
		t.Fatalf("LargestFree = %d, want 300", m.LargestFree())
	}
}

// TestReserveHoles: after Reserve(n), n frees that each open a hole of its
// own grow no hole list.
func TestReserveHoles(t *testing.T) {
	const n = 100
	m := New(2 * n * 16)
	var es []Extent
	for range 2 * n {
		e, err := m.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, e)
	}
	m.Reserve(n)
	room := cap(m.free)
	for i := 0; i < len(es); i += 2 {
		if err := m.Free(es[i]); err != nil {
			t.Fatal(err)
		}
	}
	if m.FragCount() != n || cap(m.free) != room {
		t.Fatalf("%d holes in a list whose room went %d -> %d; want %d holes, no growth", m.FragCount(), room, cap(m.free), n)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	m := New(128)
	a, _ := m.Alloc(64)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(a); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("double free: err = %v, want ErrNotOwned", err)
	}
}

func TestFreeOutOfRange(t *testing.T) {
	m := New(128)
	if err := m.Free(Extent{Base: 1000, Len: 10}); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("err = %v, want ErrNotOwned", err)
	}
}

// TestFreeRefusals reaches Free's two quiet edges: a zero-length extent is
// nothing to free, and one that starts inside the hole before it is a
// double free.
func TestFreeRefusals(t *testing.T) {
	m := New(300)
	a, _ := m.Alloc(100)
	m.Alloc(100)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(Extent{Base: 150, Len: 0}); err != nil || m.FragCount() != 2 || m.Used() != 100 {
		t.Fatalf("zero-length free: err %v, %d fragments, %d used", err, m.FragCount(), m.Used())
	}
	if err := m.Free(Extent{Base: 50, Len: 100}); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("free overlapping the hole below: err = %v, want ErrNotOwned", err)
	}
}

// TestFreshSegmentZeroed holds Alloc to handing out zero: a new object must
// not leak a previous object's contents, whether its predecessor was freed
// whole or by a prefix that covers every byte it wrote.
func TestFreshSegmentZeroed(t *testing.T) {
	for _, c := range []struct {
		name  string
		wrote int
		free  func(m *Memory, e Extent) error
	}{
		{"written whole, freed whole", 64, (*Memory).Free},
		{"written in 13 bytes, freed by a 13-byte prefix", 13, func(m *Memory, e Extent) error { return m.FreePrefix(e, 13) }},
		{"written whole, freed by a prefix past its end", 64, func(m *Memory, e Extent) error { return m.FreePrefix(e, 1000) }},
	} {
		m := New(64)
		a, _ := m.Alloc(64)
		copy(m.Window(a), bytes.Repeat([]byte{0xAA}, c.wrote))
		if err := c.free(m, a); err != nil {
			t.Fatal(err)
		}
		b, _ := m.Alloc(64)
		if got := m.Window(b); !bytes.Equal(got, make([]byte, 64)) {
			t.Errorf("%s: segment reads % x after realloc, want zeros", c.name, got)
		}
	}
}

// TestBoundsChecks: a window is exactly its extent, with no capacity past
// it, so no reslice of it reaches the next segment's bytes; and a window
// never reaches past the memory.
func TestBoundsChecks(t *testing.T) {
	m := New(64)
	e, _ := m.Alloc(8)
	if _, err := m.Alloc(8); err != nil {
		t.Fatal(err)
	}
	if w := m.Window(e); len(w) != 8 || cap(w) != 8 {
		t.Errorf("window of an 8-byte segment: length %d, capacity %d", len(w), cap(w))
	}
	if w := m.Window(Extent{Base: 60, Len: 8}); w != nil {
		t.Errorf("window past the memory: %d bytes", len(w))
	}
}

// TestBytesRoundTrip: a window is a view, not a copy, so bytes written
// through one read back through the next window of the same extent.
func TestBytesRoundTrip(t *testing.T) {
	m := New(64)
	e, _ := m.Alloc(32)
	in := []byte("the 432 blurs hw and sw")
	copy(m.Window(e)[3:], in)
	if out := m.Window(e)[3 : 3+len(in)]; string(out) != string(in) {
		t.Fatalf("round trip = %q", out)
	}
}

// TestAllocFreeInvariant property-checks the central bookkeeping invariant:
// after any interleaving of allocs and frees, used+free bytes equals the
// memory size and no two free extents overlap or abut.
func TestAllocFreeInvariant(t *testing.T) {
	f := func(sizes []uint16, freeMask []bool) bool {
		m := New(1 << 16)
		var live []Extent
		for _, s := range sizes {
			e, err := m.Alloc(uint32(s%2048) + 1)
			if err != nil {
				continue
			}
			live = append(live, e)
		}
		for i, e := range live {
			if i < len(freeMask) && freeMask[i] {
				if err := m.Free(e); err != nil {
					return false
				}
			}
		}
		// Invariant 1: conservation of bytes.
		var free uint32
		for _, e := range m.free {
			free += e.Len
		}
		if free+m.Used() != m.Size() {
			return false
		}
		// Invariant 2: free list sorted, disjoint, coalesced.
		for i := 1; i < len(m.free); i++ {
			if m.free[i-1].End() >= m.free[i].Base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFitsBelowAgreesWithAlloc property-checks the compactor's peek against
// the allocation it stands in for: over a fragmented memory, FitsBelow(n,
// limit) says exactly whether a trial Alloc(n) lands strictly below limit,
// and asking leaves the free list as it was.
func TestFitsBelowAgreesWithAlloc(t *testing.T) {
	f := func(sizes []uint16, freeMask []bool, n uint16, limit uint16) bool {
		m := New(1 << 16)
		var live []Extent
		for _, s := range sizes {
			if e, err := m.Alloc(uint32(s%2048) + 1); err == nil {
				live = append(live, e)
			}
		}
		for i, e := range live {
			if i < len(freeMask) && freeMask[i] && m.Free(e) != nil {
				return false
			}
		}
		before := append([]Extent(nil), m.free...)
		got := m.FitsBelow(uint32(n%4096)+1, Addr(limit))
		if len(before) != len(m.free) {
			return false
		}
		for i := range before {
			if before[i] != m.free[i] {
				return false
			}
		}
		trial, err := m.Alloc(uint32(n%4096) + 1)
		return got == (err == nil && trial.Base < Addr(limit))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// couldMove is Settled's oracle, by brute force: does any live extent have
// a hole below it at least as long as itself?
func couldMove(m *Memory, live []Extent) bool {
	for _, e := range live {
		for _, h := range m.free {
			if h.Base < e.Base && h.Len >= e.Len {
				return true
			}
		}
	}
	return false
}

// compact moves live extents lower, first-fit, until none can move, and
// settles: what the compactor does, without the bytes.
func compact(m *Memory, live []Extent) {
	for moved := true; moved; {
		moved = false
		for i, e := range live {
			if m.FitsBelow(e.Len, e.Base) {
				live[i], _ = m.Alloc(e.Len)
				_ = m.Free(e)
				moved = true
			}
		}
	}
	m.Settle()
}

// TestSettledCases walks Settled through the cases that decide it, each
// against the oracle. Every case starts from a 100-byte hole under a
// 200-byte and a 300-byte extent, which cannot move into it, and a
// 424-byte hole above them.
func TestSettledCases(t *testing.T) {
	for _, tc := range []struct {
		name    string
		settled bool
		after   func(m *Memory, live []Extent) []Extent
	}{
		{"an allocation freed again", true, func(m *Memory, live []Extent) []Extent {
			e, _ := m.Alloc(50)
			_ = m.Free(e)
			return live
		}},
		{"a part placed above the holes, which cannot move", true, func(m *Memory, live []Extent) []Extent {
			e, _ := m.Alloc(150)
			return append(live, e)
		}},
		{"a free that makes an old hole longer", false, func(m *Memory, live []Extent) []Extent {
			_ = m.Free(live[0])
			return live[1:]
		}},
		{"a transient shrinks a hole, a part lands above it, the transient goes", false, func(m *Memory, live []Extent) []Extent {
			tr, _ := m.Alloc(60)
			e, _ := m.Alloc(50) // the 40 bytes left below are too short
			_ = m.Free(tr)
			return append(live, e)
		}},
	} {
		m := New(1024)
		a, _ := m.Alloc(100)
		b, _ := m.Alloc(200)
		c, _ := m.Alloc(300)
		_ = m.Free(a)
		live := []Extent{b, c}
		if m.Settled() {
			t.Fatalf("%s: memory never settled reads as settled", tc.name)
		}
		compact(m, live)
		if !m.Settled() || couldMove(m, live) {
			t.Fatalf("%s: not settled after compaction", tc.name)
		}
		live = tc.after(m, live)
		if got := m.Settled(); got != tc.settled || got && couldMove(m, live) {
			t.Errorf("%s: Settled() = %v, want %v; the oracle says a part could move: %v", tc.name, got, tc.settled, couldMove(m, live))
		}
	}
}

// TestSettledNeverHidesAMove property-checks the one direction the
// compactor relies on: after a compaction and any allocations and frees,
// Settled() true means no live extent could move lower.
func TestSettledNeverHidesAMove(t *testing.T) {
	var settled, checks int
	f := func(sizes []uint16, freeMask []bool, ops []uint16) bool {
		m := New(1 << 14)
		var live []Extent
		for _, s := range sizes {
			if e, err := m.Alloc(uint32(s%1024) + 1); err == nil {
				live = append(live, e)
			}
		}
		kept := live[:0]
		for i, e := range live {
			if i < len(freeMask) && freeMask[i] {
				_ = m.Free(e)
			} else {
				kept = append(kept, e)
			}
		}
		live = kept
		compact(m, live)
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op/3) % len(live)
				_ = m.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			} else if e, err := m.Alloc(uint32(op%1024) + 1); err == nil {
				live = append(live, e)
			}
			checks++
			if m.Settled() {
				settled++
				if couldMove(m, live) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if settled == 0 || settled == checks {
		t.Errorf("Settled() held after %d of %d operations: the property was not exercised both ways", settled, checks)
	}
}
