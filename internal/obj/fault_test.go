package obj

import (
	"runtime"
	"testing"
)

// TestRoutineFaultStrings pins Error() of the two faults a swapping system
// raises as routine events (§7.3): the segment fault of an access to a
// swapped-out object, through every accessor family, and the no-memory
// fault of a creation or a swap-in that finds no room. Nothing but Error()
// reads their detail, so how and when it is rendered is free to change;
// the text is not.
func TestRoutineFaultStrings(t *testing.T) {
	tab := NewTable(1024)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 256, AccessSlots: 2})
	if f := tab.SwapOut(ad.Index, 7); f != nil {
		t.Fatal(f)
	}
	const moved = "fault: segment moved or swapped out on AD<1#1 rwd123>: swapped out (token 7)"
	_, read := tab.ReadDWord(ad, 0)
	_, load := tab.LoadAD(ad, 1)
	var v View
	tab.View(ad, TypeGeneric, RightRead, &v)
	referents := tab.Referents(ad.Index, func(AD) {})
	filler := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 1000})
	_, _, swapIn := tab.SwapIn(ad.Index)
	_, data := tab.Create(CreateSpec{Type: TypeGeneric, DataLen: 64})
	if f := tab.Destroy(filler); f != nil {
		t.Fatal(f)
	}
	mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 1000})
	_, access := tab.Create(CreateSpec{Type: TypeGeneric, DataLen: 8, AccessSlots: 4})
	if tab.Memory().Used() != 1000 {
		t.Fatalf("the failed creations left %d bytes in use, want 1000", tab.Memory().Used())
	}
	for _, c := range []struct {
		name string
		got  *Fault
		want string
	}{
		{"read", read, moved},
		{"write", tab.WriteDWord(ad, 0, 1), moved},
		{"load AD", load, moved},
		{"store AD", tab.StoreAD(ad, 0, NilAD), moved},
		{"view", v.Fault(), moved},
		{"referents", referents, "fault: segment moved or swapped out on AD<1#0 ->: cannot scan swapped object"},
		{"swap out twice", tab.SwapOut(ad.Index, 8), "fault: segment moved or swapped out on AD<1#0 ->: already swapped out"},
		{"swap in", swapIn, "fault: insufficient storage on AD<1#0 ->: mem: insufficient free storage"},
		{"create, data part", data, "fault: insufficient storage on AD<nil>: data part: mem: insufficient free storage"},
		{"create, access part", access, "fault: insufficient storage on AD<nil>: access part: mem: insufficient free storage"},
	} {
		if c.got == nil {
			t.Errorf("%s: no fault", c.name)
		} else if c.got.Error() != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, c.got.Error(), c.want)
		}
	}
}

// TestSegmentFaultsDistinct: the segment faults whyNot carves from the
// table's slab are each their own object and are never written again, so
// a fault kept across hundreds of later ones (more than two slabs' worth,
// on other capabilities and tokens) still says what it said; and a
// thousand refusals cost the host one allocation per slab, not one each.
func TestSegmentFaultsDistinct(t *testing.T) {
	tab := NewTable(1 << 16)
	var ads [5]AD
	for i := range ads {
		ads[i] = mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 64})
		if f := tab.SwapOut(ads[i].Index, uint64(100+i)); f != nil {
			t.Fatal(f)
		}
	}
	_, kept := tab.ReadDWord(ads[0], 0)
	if kept == nil {
		t.Fatal("a read of a swapped-out object was not refused")
	}
	const keptText = "fault: segment moved or swapped out on AD<1#1 rwd123>: swapped out (token 100)"
	check := func(when string) {
		t.Helper()
		if kept.Code != FaultSegmentMoved || kept.AD != ads[0] || kept.Token != 100 || kept.Error() != keptText {
			t.Fatalf("%s: the kept fault reads %v (%s, %v, token %d)", when, kept, kept.Code, kept.AD, kept.Token)
		}
	}
	check("at once")

	seen := map[*Fault]bool{kept: true}
	raise := func(i int) *Fault {
		a := ads[1+i%4].Restrict(Rights(i/4) &^ RightRead & RightsAll)
		_, f := tab.ReadDWord(a, 4)
		if f == nil || f.Code != FaultSegmentMoved || f.AD != a || f.Token != uint64(101+i%4) {
			t.Fatalf("refusal %d on %v: %v", i, a, f)
		}
		return f
	}
	for i := 0; i < 2*faultSlab+88; i++ {
		f := raise(i)
		if seen[f] {
			t.Fatalf("refusal %d returned a fault already handed out", i)
		}
		seen[f] = true
	}
	check("after 600 more")

	const n = 1_000
	faults := make([]*Fault, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range faults {
		faults[i] = raise(i)
	}
	runtime.ReadMemStats(&m1)
	check("after 1 600 more")
	for i, f := range faults {
		if seen[f] {
			t.Fatalf("refusal %d of the last thousand returned a fault already handed out", i)
		}
		seen[f] = true
	}
	if got, limit := m1.Mallocs-m0.Mallocs, uint64(n/faultSlab+1); got > limit {
		t.Errorf("%d refusals made %d allocations, want at most %d", n, got, limit)
	}
}

// TestLatch: a construction latch passes every create's AD through, keeps
// the first fault it is handed and no later one.
func TestLatch(t *testing.T) {
	var l Latch
	a := AD{Index: 7, Gen: 1, Rights: RightsData}
	if got := l.AD(a, nil); got != a || l.Fault() != nil {
		t.Fatalf("a create that succeeded: %v, %v", got, l.Fault())
	}
	l.Keep(nil)
	first := Faultf(FaultNoMemory, NilAD, "first")
	if got := l.AD(NilAD, first); got != NilAD || l.Fault() != first {
		t.Fatalf("a refused create: %v, %v", got, l.Fault())
	}
	l.Keep(nil)
	l.Keep(Faultf(FaultOddity, NilAD, "second"))
	if got := l.AD(a, nil); got != a || l.Fault() != first {
		t.Fatalf("after the refusal: %v, %v", got, l.Fault())
	}
}
