package mm

import (
	"testing"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/sro"
)

func setup(t *testing.T, memBytes uint32) (*obj.Table, *sro.Manager) {
	t.Helper()
	tab := obj.NewTable(memBytes)
	return tab, sro.NewManager(tab)
}

func TestBothImplementationsMeetTheInterface(t *testing.T) {
	// §6.2: one specification, two implementations, same client code.
	tab, s := setup(t, 1<<20)
	for _, alloc := range []Allocator{NewNonSwapping(s), NewSwapping(tab, s)} {
		heap, f := alloc.NewHeap(0)
		if f != nil {
			t.Fatalf("%s: NewHeap: %v", alloc.Name(), f)
		}
		ad, f := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 128})
		if f != nil {
			t.Fatalf("%s: Allocate: %v", alloc.Name(), f)
		}
		if fault := tab.WriteDWord(ad, 0, 7); fault != nil {
			t.Fatalf("%s: write: %v", alloc.Name(), fault)
		}
		local, f := alloc.NewLocalHeap(heap, 2, 0)
		if f != nil {
			t.Fatalf("%s: NewLocalHeap: %v", alloc.Name(), f)
		}
		if _, f := alloc.Allocate(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64}); f != nil {
			t.Fatalf("%s: local Allocate: %v", alloc.Name(), f)
		}
		if n, f := alloc.DestroyHeap(local); f != nil || n != 1 {
			t.Fatalf("%s: DestroyHeap = %d, %v", alloc.Name(), n, f)
		}
	}
}

func TestNonSwappingFailsAtPhysicalLimit(t *testing.T) {
	tab, s := setup(t, 4096)
	alloc := NewNonSwapping(s)
	heap, _ := alloc.NewHeap(0)
	var n int
	for {
		_, f := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 512})
		if f != nil {
			if !obj.IsFault(f, obj.FaultNoMemory) {
				t.Fatalf("unexpected fault: %v", f)
			}
			break
		}
		n++
		if n > 64 {
			t.Fatal("never hit the physical limit")
		}
	}
	if n == 0 || tab.Live() == 0 {
		t.Fatal("nothing allocated before exhaustion")
	}
}

func TestSwappingExceedsPhysicalMemory(t *testing.T) {
	// The same workload that kills the non-swapping manager succeeds
	// under the swapping one: virtual space beyond physical memory.
	tab, s := setup(t, 64*1024)
	alloc := NewSwapping(tab, s)
	heap, _ := alloc.NewHeap(0)
	var ads []obj.AD
	// Allocate 4× physical memory in 4 KB objects.
	for i := 0; i < 64; i++ {
		ad, f := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4096})
		if f != nil {
			t.Fatalf("allocation %d: %v", i, f)
		}
		// Tag each object so we can verify contents after swapping.
		// The write may itself hit a swapped object only if the
		// allocator returned a non-resident newborn, which it must
		// not.
		if fault := tab.WriteDWord(ad, 0, uint32(i)); fault != nil {
			t.Fatalf("tagging %d: %v", i, fault)
		}
		ads = append(ads, ad)
	}
	if alloc.SwapOuts == 0 {
		t.Fatal("no evictions despite 4× overcommit")
	}
	// Every object must be recoverable with its contents intact.
	for i, ad := range ads {
		if f := alloc.EnsureResident(ad.Index); f != nil {
			t.Fatalf("EnsureResident %d: %v", i, f)
		}
		v, fault := tab.ReadDWord(ad, 0)
		if fault != nil {
			t.Fatalf("read %d: %v", i, fault)
		}
		if v != uint32(i) {
			t.Fatalf("object %d contents = %d after swap round trip", i, v)
		}
	}
	if alloc.SwapIns == 0 {
		t.Fatal("no swap-ins recorded")
	}
}

func TestSwappedObjectFaultsOnAccess(t *testing.T) {
	tab, s := setup(t, 1<<20)
	alloc := NewSwapping(tab, s)
	heap, _ := alloc.NewHeap(0)
	ad, _ := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 256})
	if f := alloc.swapOut(ad.Index); f != nil {
		t.Fatal(f)
	}
	if _, f := tab.ReadByteAt(ad, 0); !obj.IsFault(f, obj.FaultSegmentMoved) {
		t.Fatalf("access to swapped object: %v", f)
	}
	if f := alloc.EnsureResident(ad.Index); f != nil {
		t.Fatal(f)
	}
	if _, f := tab.ReadByteAt(ad, 0); f != nil {
		t.Fatalf("access after swap-in: %v", f)
	}
	// Idempotent.
	if f := alloc.EnsureResident(ad.Index); f != nil {
		t.Fatalf("EnsureResident on resident: %v", f)
	}
}

func TestAccessPartSurvivesSwap(t *testing.T) {
	// Capabilities stored in a swapped object must come back intact.
	tab, s := setup(t, 1<<20)
	alloc := NewSwapping(tab, s)
	heap, _ := alloc.NewHeap(0)
	dir, _ := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 4})
	leaf, _ := alloc.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f := tab.StoreAD(dir, 2, leaf); f != nil {
		t.Fatal(f)
	}
	if f := alloc.swapOut(dir.Index); f != nil {
		t.Fatal(f)
	}
	if f := alloc.EnsureResident(dir.Index); f != nil {
		t.Fatal(f)
	}
	got, f := tab.LoadAD(dir, 2)
	if f != nil {
		t.Fatal(f)
	}
	if got != leaf {
		t.Fatalf("capability corrupted by swap: %v != %v", got, leaf)
	}
}

func TestHardwareAnchorsNotSwappable(t *testing.T) {
	tab, s := setup(t, 1<<20)
	alloc := NewSwapping(tab, s)
	heap, _ := alloc.NewHeap(0)
	for _, typ := range []obj.Type{obj.TypeProcess, obj.TypePort, obj.TypeProcessor, obj.TypeSRO, obj.TypeContext, obj.TypeCarrier} {
		ad, f := s.Create(heap, obj.CreateSpec{Type: typ, DataLen: 32, AccessSlots: 4})
		if f != nil {
			t.Fatal(f)
		}
		if alloc.swappable(ad.Index) {
			t.Errorf("%v is swappable", typ)
		}
	}
	g, _ := s.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 32})
	if !alloc.swappable(g.Index) {
		t.Error("generic object not swappable")
	}
}

func TestDestroyHeapReleasesBackingImages(t *testing.T) {
	tab, s := setup(t, 1<<20)
	alloc := NewSwapping(tab, s)
	root, _ := alloc.NewHeap(0)
	local, _ := alloc.NewLocalHeap(root, 1, 0)
	ad, _ := alloc.Allocate(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 1024})
	if f := alloc.swapOut(ad.Index); f != nil {
		t.Fatal(f)
	}
	if alloc.Store.Images() != 1 {
		t.Fatalf("backing images = %d", alloc.Store.Images())
	}
	if _, f := alloc.DestroyHeap(local); f != nil {
		t.Fatal(f)
	}
	if alloc.Store.Images() != 0 {
		t.Fatal("backing image leaked by heap destruction")
	}
}

// TestDestroyReleasesBackingImage: an object destroyed while swapped out
// gives its image back whoever destroys it — the capability path, the
// collector's DestroyIndex, SRO reclaim, or the bulk destruction of a heap
// it is not a direct member of — and the next eviction reuses the buffer.
func TestDestroyReleasesBackingImage(t *testing.T) {
	for _, c := range []struct {
		name    string
		destroy func(tab *obj.Table, s *sro.Manager, heap, ad obj.AD) *obj.Fault
	}{
		{"Table.Destroy", func(tab *obj.Table, _ *sro.Manager, _, ad obj.AD) *obj.Fault { return tab.Destroy(ad) }},
		{"Table.DestroyIndex", func(tab *obj.Table, _ *sro.Manager, _, ad obj.AD) *obj.Fault { return tab.DestroyIndex(ad.Index) }},
		{"sro.Reclaim", func(_ *obj.Table, s *sro.Manager, _, ad obj.AD) *obj.Fault { return s.Reclaim(ad.Index) }},
		{"DestroyHeap of the enclosing heap", func(_ *obj.Table, s *sro.Manager, heap, _ obj.AD) *obj.Fault {
			_, f := s.DestroyHeap(heap)
			return f
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tab, s := setup(t, 1<<20)
			alloc := NewSwapping(tab, s)
			root, _ := alloc.NewHeap(0)
			outer, _ := alloc.NewLocalHeap(root, 1, 0)
			inner, _ := alloc.NewLocalHeap(outer, 2, 0)
			ad, f := alloc.Allocate(inner, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 1024, AccessSlots: 2})
			if f != nil {
				t.Fatal(f)
			}
			if f := alloc.swapOut(ad.Index); f != nil {
				t.Fatal(f)
			}
			if n, tok := alloc.Store.Images(), alloc.Store.Token(ad.Index); n != 1 || tok != 1 {
				t.Fatalf("after swap-out: %d images, token %d for the object", n, tok)
			}
			if f := c.destroy(tab, s, outer, ad); f != nil {
				t.Fatal(f)
			}
			if n, tok := alloc.Store.Images(), alloc.Store.Token(ad.Index); n != 0 || tok != 0 {
				t.Fatalf("backing image leaked: %d images, token %d for the dead object", n, tok)
			}
			if len(alloc.Store.spare) != 1 {
				t.Fatalf("%d spare buffers after the release, want 1", len(alloc.Store.spare))
			}
			// A slot recycled for a new object starts with no image, and
			// its eviction takes the released buffer.
			next, f := alloc.Allocate(root, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 1040})
			if f != nil {
				t.Fatal(f)
			}
			if f := alloc.swapOut(next.Index); f != nil {
				t.Fatal(f)
			}
			if alloc.Store.Images() != 1 || len(alloc.Store.spare) != 0 {
				t.Fatalf("after the next swap-out: %d images, %d spare buffers", alloc.Store.Images(), len(alloc.Store.spare))
			}
			if f := alloc.EnsureResident(next.Index); f != nil {
				t.Fatal(f)
			}
		})
	}
}

func TestSegmentFaultServiceEndToEnd(t *testing.T) {
	// A VM process touches a swapped-out object; the fault handler
	// process swaps it in and the victim completes, never aware of the
	// interruption (§6.2/§7.3).
	sys, err := gdp.New(gdp.Config{Processors: 1, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	swapper := NewSwapping(sys.Table, sys.SROs)
	faultPort, f := sys.Ports.Create(sys.Heap, 16, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	if _, f := sys.SpawnNative(FaultHandlerBody(swapper, faultPort, obj.NilAD), gdp.SpawnSpec{Priority: 15}); f != nil {
		t.Fatal(f)
	}

	target, f := swapper.Allocate(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64})
	if f != nil {
		t.Fatal(f)
	}
	if fault := sys.Table.WriteDWord(target, 0, 1234); fault != nil {
		t.Fatal(fault)
	}
	out, _ := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f := swapper.swapOut(target.Index); f != nil {
		t.Fatal(f)
	}

	code, _ := sys.Domains.CreateCode(sys.Heap, []isa.Instr{
		isa.Load(0, 0, 0),  // faults: a0 is swapped out
		isa.Store(0, 1, 0), // out ← the value
		isa.Halt(),
	})
	dom, _ := sys.Domains.Create(sys.Heap, code, []uint32{0})
	victim, f := sys.Spawn(dom, gdp.SpawnSpec{
		FaultPort: faultPort,
		AArgs:     [4]obj.AD{target, out},
	})
	if f != nil {
		t.Fatal(f)
	}
	done := func() bool {
		st, _ := sys.Procs.StateOf(victim)
		return st == process.StateTerminated
	}
	if _, f := sys.RunUntil(done, 50_000_000); f != nil {
		t.Fatal(f)
	}
	if v, _ := sys.Table.ReadDWord(out, 0); v != 1234 {
		t.Fatalf("victim read %d through the segment fault", v)
	}
	if swapper.SwapIns == 0 {
		t.Fatal("no swap-in performed")
	}
}

func TestFaultHandlerForwardsOtherFaults(t *testing.T) {
	sys, err := gdp.New(gdp.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	swapper := NewSwapping(sys.Table, sys.SROs)
	faultPort, _ := sys.Ports.Create(sys.Heap, 16, port.FIFO)
	overflow, _ := sys.Ports.Create(sys.Heap, 16, port.FIFO)
	if _, f := sys.SpawnNative(FaultHandlerBody(swapper, faultPort, overflow), gdp.SpawnSpec{Priority: 15}); f != nil {
		t.Fatal(f)
	}
	code, _ := sys.Domains.CreateCode(sys.Heap, []isa.Instr{
		isa.FaultInject(uint32(obj.FaultRights)),
		isa.Halt(),
	})
	dom, _ := sys.Domains.Create(sys.Heap, code, []uint32{0})
	victim, _ := sys.Spawn(dom, gdp.SpawnSpec{FaultPort: faultPort})
	forwarded := func() bool {
		n, _ := sys.Ports.Count(overflow)
		return n > 0
	}
	if _, f := sys.RunUntil(forwarded, 50_000_000); f != nil {
		t.Fatal(f)
	}
	msg, ok, f := sys.ReceiveMessage(overflow)
	if f != nil || !ok {
		t.Fatalf("overflow port empty: %v %v", ok, f)
	}
	if msg.Index != victim.Index {
		t.Fatal("wrong process forwarded")
	}
}

// TestFaultHandlerTakesNoRequeueFault: a victim the handler has made
// resident but cannot requeue, because the dispatch port is full, is
// system damage. The handler is a level-2 process and may not fault
// (§7.3): its step yields with no fault, and the next Step returns the
// overflow.
func TestFaultHandlerTakesNoRequeueFault(t *testing.T) {
	sys, err := gdp.New(gdp.Config{Processors: 1, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	swapper := NewSwapping(sys.Table, sys.SROs)
	faultPort, f := sys.Ports.Create(sys.Heap, 16, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	target, f := swapper.Allocate(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64})
	if f != nil {
		t.Fatal(f)
	}
	if f := swapper.swapOut(target.Index); f != nil {
		t.Fatal(f)
	}
	code, _ := sys.Domains.CreateCode(sys.Heap, []isa.Instr{isa.Load(0, 0, 0), isa.Halt()})
	dom, _ := sys.Domains.Create(sys.Heap, code, []uint32{0})
	victim, f := sys.Spawn(dom, gdp.SpawnSpec{FaultPort: faultPort, AArgs: [4]obj.AD{target}})
	if f != nil {
		t.Fatal(f)
	}
	if _, f := sys.Run(1_000_000); f != nil {
		t.Fatal(f)
	}
	if n, _ := sys.Ports.Count(faultPort); n != 1 {
		t.Fatalf("fault port holds %d, want the segment-faulted victim", n)
	}
	filler, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	for n := 0; n < gdp.DispatchCapacity; n++ {
		if blocked, _, f := sys.Ports.Send(sys.Dispatch, filler, 0, obj.NilAD); blocked || f != nil {
			t.Fatalf("filling the dispatch port at %d: %v %v", n, blocked, f)
		}
	}

	_, status, f := FaultHandlerBody(swapper, faultPort, obj.NilAD).Step(sys, obj.NilAD)
	if f != nil || status != gdp.BodyYield {
		t.Fatalf("handler step = %v, %v; want BodyYield and no fault", status, f)
	}
	if swapper.FaultsServiced != 1 {
		t.Fatalf("%d faults serviced, want the victim's", swapper.FaultsServiced)
	}
	_, f = sys.Step(1_000)
	if f == nil || f.Code != obj.FaultBounds || f.AD.Index != sys.Dispatch.Index {
		t.Fatalf("next Step = %v, want the dispatch port's overflow", f)
	}
	if c, _ := sys.Procs.FaultCode(victim); c != obj.FaultSegmentMoved {
		t.Fatalf("victim's recorded fault %v, want its own segment fault", c)
	}
}

func TestTransferCost(t *testing.T) {
	if transferCost(0) == 0 {
		t.Error("zero-byte transfer should still cost a seek")
	}
	if transferCost(4096) <= transferCost(1024) {
		t.Error("cost not increasing with size")
	}
}
