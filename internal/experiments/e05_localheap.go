package experiments

import (
	"fmt"

	"repro/internal/gc"
	"repro/internal/mm"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/sro"
	"repro/internal/typedef"
	"repro/internal/vtime"
)

func init() { register("E5", runE5) }

// runE5 reproduces the §5/§8.1 local-heap claim: objects allocated from
// local SROs "will be collected more efficiently whenever their ancestral
// SRO is destroyed" — reclamation by lifetime knowledge versus
// reclamation by global tracing. The experiment allocates N short-lived
// objects each way and compares the reclamation cost per object and the
// work the collector had to do. Beside the two it runs the baseline the
// paper argues against, explicit deallocation through a capability carrying
// the delete right, and §8.1's sketched extension, a collection local to
// one SRO.
func runE5() *Result {
	counts := []int{100, 1_000, 5_000}

	res := &Result{
		ID:     "E5",
		Title:  "Local-heap bulk reclamation vs global garbage collection",
		Claim:  "§5: local-SRO objects are collected more efficiently when their ancestral SRO is destroyed (no tracing needed)",
		Header: []string{"objects", "strategy", "reclaim cycles", "cycles/object", "collector visits"},
		Notes: []string{
			"bulk destruction never inspects object contents: the level rule already proved no references escaped",
			"the tracing collector must whiten, mark and sweep the whole table to prove the same thing",
			"heaps are made, filled and destroyed through the one memory-management interface (mm.Allocator); the swapping and the non-swapping manager destroy the same count",
			"explicit destruction is as cheap as bulk teardown but leaves every retained copy dangling: the table refuses each later use, and refuses a destroy through a copy without the delete right",
			"local collection: 20 garbage objects in one local SRO beside 400 objects of the global heap; the local pass scans access parts for references into the SRO and sweeps only its population",
		},
	}
	perObject := func(n int, strategy string, cy vtime.Cycles, visits any) {
		res.Rows = append(res.Rows, row(fmt.Sprint(n), strategy, fmt.Sprint(uint64(cy)),
			fmt.Sprintf("%.1f", float64(cy)/float64(n)), fmt.Sprint(visits)))
	}

	var lastRatio float64
	for _, n := range counts {
		bulkCy := measureBulk(n)
		gcCy, visits := measureGC(n)
		perObject(n, "local SRO destroy", bulkCy, 0)
		perObject(n, "global heap + GC", gcCy, visits)
		perObject(n, "explicit destroy, every stale copy refused", measureExplicit(n), 0)
		lastRatio = float64(gcCy) / float64(bulkCy)
	}
	localCy, globalCy := measureLocalCollection()
	perObject(20, "local collection of one SRO among 420 objects (§8.1)", localCy, "—")
	perObject(20, "global cycle over the same 420", globalCy, "—")

	res.Pass = lastRatio > 1.5 && localCy < globalCy
	res.Verdict = fmt.Sprintf("global GC costs %.1f× bulk SRO destruction at the largest size; a local collection costs %.1f× less than a global cycle",
		lastRatio, float64(globalCy)/float64(localCy))
	return res
}

// heapWorld is a bare object world: a table, an SRO manager, and a pinned
// global heap made through the memory-management interface.
type heapWorld struct {
	tab    *obj.Table
	sros   *sro.Manager
	mm     mm.Allocator
	global obj.AD
}

func newHeapWorld(memory uint32, swapping bool) *heapWorld {
	w := &heapWorld{tab: obj.NewTable(memory)}
	w.sros = sro.NewManager(w.tab)
	w.mm = mm.NewNonSwapping(w.sros)
	if swapping {
		w.mm = mm.NewSwapping(w.tab, w.sros)
	}
	w.global = must(w.mm.NewHeap(0))
	check(w.tab.Pin(w.global))
	return w
}

// alloc creates n objects of the given shape from heap.
func (w *heapWorld) alloc(heap obj.AD, n int, spec obj.CreateSpec) []obj.AD {
	ads := make([]obj.AD, n)
	for i := range ads {
		ads[i] = must(w.mm.Allocate(heap, spec))
	}
	return ads
}

func (w *heapWorld) collector() *gc.Collector {
	return gc.New(w.tab, w.sros, port.NewManager(w.tab, w.sros), typedef.NewManager(w.tab))
}

var shortLived = obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64, AccessSlots: 2}

// measureBulk allocates n objects from a local heap and times DestroyHeap
// in collector-equivalent cycles (the SRO teardown path charged at sweep
// cost per object, matching what the daemon would charge), once on each
// memory manager.
func measureBulk(n int) vtime.Cycles {
	for _, swapping := range []bool{false, true} {
		w := newHeapWorld(256<<20, swapping)
		local := must(w.mm.NewLocalHeap(w.global, 1, 0))
		w.alloc(local, n, shortLived)
		if destroyed := must(w.mm.DestroyHeap(local)); destroyed != n {
			fail("%s manager: bulk destroyed %d of %d", w.mm.Name(), destroyed, n)
		}
	}
	// Bulk teardown touches each descriptor once: charge the sweep-step
	// cost per object, which is what the microcode path amounts to.
	return vtime.Cycles(n) * vtime.CostGCSweepStep
}

// measureGC allocates n objects from the global heap, drops them, and
// runs a full collection, reporting the collector's charged cycles and
// mark visits.
func measureGC(n int) (vtime.Cycles, uint64) {
	w := newHeapWorld(256<<20, false)
	// A live structure the collector must trace past (roots are never
	// empty in a real system).
	w.alloc(w.global, 1, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 8, Pinned: true})
	w.alloc(w.global, n, shortLived)
	c := w.collector()
	spent := must(c.Collect())
	if st := c.Stats(); st.Reclaimed < uint64(n) {
		fail("collector reclaimed %d of %d", st.Reclaimed, n)
	}
	return spent, c.Stats().Marked
}

// measureExplicit is the malloc/free baseline: the program keeps every
// capability and destroys each object itself. The teardown is the one a
// bulk destroy does per descriptor and is charged the same; what it costs
// is the discipline. A second copy of each capability, without the delete
// right, stands in for the references a real program leaves behind: it
// cannot destroy the object, and after the destroy the table refuses it.
func measureExplicit(n int) vtime.Cycles {
	w := newHeapWorld(256<<20, false)
	owned := w.alloc(w.global, n, shortLived)
	live := w.tab.Live()
	for _, ad := range owned {
		stale := ad.Restrict(obj.RightDelete)
		if f := w.tab.Destroy(stale); !obj.IsFault(f, obj.FaultRights) {
			fail("destroy without the delete right: %v", f)
		}
		check(w.tab.Destroy(ad))
		if _, f := w.tab.ReadDWord(stale, 0); !obj.IsFault(f, obj.FaultInvalidAD) {
			fail("use after destroy: %v", f)
		}
	}
	if got := w.tab.Live(); got != live-n {
		fail("explicit destroy left %d objects live, want %d", got, live-n)
	}
	return vtime.Cycles(n) * vtime.CostGCSweepStep
}

// measureLocalCollection is §8.1's extension against the global cycle it
// would spare: 400 objects allocated from the global heap (64 of them held
// by a root directory), a local SRO holding 20 objects nothing references,
// one local collection of that SRO, then one global cycle.
func measureLocalCollection() (local, global vtime.Cycles) {
	w := newHeapWorld(1<<20, false)
	root := w.alloc(w.global, 1, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 64, Pinned: true})[0]
	for i, ad := range w.alloc(w.global, 400, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16, AccessSlots: 1}) {
		check(w.tab.StoreAD(root, uint32(i%64), ad))
	}
	heap := must(w.mm.NewLocalHeap(w.global, 1, 0))
	check(w.tab.StoreAD(root, 63, heap))
	w.alloc(heap, 20, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	c := w.collector()
	local, n, f := c.CollectLocal(heap.Index)
	check(f)
	if n != 20 {
		fail("local collection reclaimed %d of 20", n)
	}
	return local, must(c.Collect())
}
