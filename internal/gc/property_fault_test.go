package gc_test

// Property test for the §8.1 on-the-fly collector under process faults:
// a worker allocates from a claimed local heap and then faults mid-mark,
// after which its objects are destroyed and replaced while the mark phase
// is still propagating grayness. The tricolor invariant (no black→white
// edge the collector cannot see) must hold after every interleaved
// mutation, and the full cross-subsystem audit must be clean once the
// cycle completes. This lives in an external test package so it can use
// the auditor (audit imports gc).

import (
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
)

// advanceToMark steps the collector until it is propagating grayness.
func advanceToMark(t *testing.T, c *gc.Collector) {
	t.Helper()
	for i := 0; i < 100_000; i++ {
		if c.Phase() == gc.PhaseMark {
			return
		}
		if _, _, f := c.Step(1); f != nil {
			t.Fatal(f)
		}
	}
	t.Fatalf("collector never reached the mark phase (stuck in %v)", c.Phase())
}

// drainCycle steps the collector until the current cycle completes. One
// unit per call: a larger Step can finish the cycle and roll straight
// into the next one, so polling Phase()==Idle would never observe it.
func drainCycle(t *testing.T, c *gc.Collector) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if _, done, f := c.Step(1); f != nil {
			t.Fatal(f)
		} else if done {
			return
		}
	}
	t.Fatalf("collection cycle never completed (stuck in %v)", c.Phase())
}

func TestGCFaultingProcessMidMarkProperty(t *testing.T) {
	for trial := int64(0); trial < 5; trial++ {
		trial := trial
		rng := rand.New(rand.NewSource(0xFA17 + trial))

		im, err := core.Boot(core.Config{
			Processors:  2,
			MemoryBytes: 8 << 20,
			GC:          true,
			GCWork:      4,
			GCInterval:  1 << 40, // the daemon stays quiet; the test drives the collector
		})
		if err != nil {
			t.Fatal(err)
		}
		auditor := audit.New(im.System).WithGC(im.Collector)
		checkTricolor := func(when string) {
			t.Helper()
			for _, v := range auditor.CheckTricolor() {
				t.Fatalf("trial %d: tricolor violation %s: %s %v %s",
					trial, when, v.Subsystem, v.Obj, v.Msg)
			}
		}

		// A random published graph: confinement witnesses the collector
		// must never reclaim, and mutation targets for mid-mark barrier
		// traffic.
		const nGraph = 40
		graph := make([]obj.AD, nGraph)
		slot := uint32(0)
		for i := range graph {
			o, f := im.SROs.Create(im.Heap, obj.CreateSpec{
				Type: obj.TypeGeneric, DataLen: 16, AccessSlots: 2,
			})
			if f != nil {
				t.Fatal(f)
			}
			graph[i] = o
		}
		for e := 0; e < nGraph*2; e++ {
			from, to := graph[rng.Intn(nGraph)], graph[rng.Intn(nGraph)]
			if f := im.Table.StoreAD(from, uint32(rng.Intn(2)), to); f != nil {
				t.Fatal(f)
			}
		}
		var published []obj.AD
		for i := 0; i < 6; i++ {
			root := graph[rng.Intn(nGraph)]
			if f := im.Publish(slot, root); f != nil {
				t.Fatal(f)
			}
			published = append(published, root)
			slot++
		}

		// live tracks the graph objects that have survived collection so
		// far; unpublished, unreachable ones are legitimately reclaimed
		// as cycles complete and must drop out of the mutation pool.
		live := append([]obj.AD(nil), graph...)
		refreshLive := func() {
			kept := live[:0]
			for _, o := range live {
				if d := im.Table.DescriptorAt(o.Index); d != nil && d.Gen == o.Gen {
					kept = append(kept, o)
				}
			}
			live = kept
		}

		// The faulting allocator: creates objects from a claimed local
		// heap, then raises a bounds fault and parks at an unserviced
		// fault port.
		const nAlloc = 24
		heap, f := im.MM.NewLocalHeap(im.Heap, 0, nAlloc*64+4096)
		if f != nil {
			t.Fatal(f)
		}
		if f := im.Publish(slot, heap); f != nil {
			t.Fatal(f)
		}
		slot++
		fp, f := im.Ports.Create(im.Heap, 4, port.FIFO)
		if f != nil {
			t.Fatal(f)
		}
		if f := im.Publish(slot, fp); f != nil {
			t.Fatal(f)
		}
		slot++
		prog := []isa.Instr{
			isa.MovI(4, nAlloc),
			isa.MovI(2, 40),
			isa.MovI(3, 0),
			isa.Create(2, 0, 2), // a2 ← new object from the heap in a0
			isa.AddI(4, 4, ^uint32(0)),
			isa.BrNZ(4, 3),
			isa.FaultInject(uint32(obj.FaultBounds)),
			isa.Halt(),
		}
		code, f := im.Domains.CreateCode(im.Heap, prog)
		if f != nil {
			t.Fatal(f)
		}
		dom, f := im.Domains.Create(im.Heap, code, []uint32{0})
		if f != nil {
			t.Fatal(f)
		}
		worker, f := im.Spawn(dom, gdp.SpawnSpec{
			Priority:  5,
			FaultPort: fp,
			AArgs:     [4]obj.AD{0: heap},
		})
		if f != nil {
			t.Fatal(f)
		}

		faulted := func() bool {
			st, f := im.Procs.StateOf(worker)
			return f == nil && st == process.StateFaulted
		}
		// reclaimOne destroys one surviving heap allocation of the
		// faulting worker; returns false when none remain.
		reclaimOne := func() bool {
			for i := 1; i < im.Table.Len(); i++ {
				idx := obj.Index(i)
				d := im.Table.DescriptorAt(idx)
				if d == nil || d.Pinned() || d.Type != obj.TypeGeneric || d.SRO != heap.Index {
					continue
				}
				if f := im.SROs.Reclaim(idx); f != nil {
					t.Fatalf("trial %d: reclaim %d mid-mark: %v", trial, idx, f)
				}
				return true
			}
			return false
		}

		destroyed, created := 0, 0
		for cycle := 0; cycle < 12 && !(faulted() && destroyed > 0 && created > 0); cycle++ {
			advanceToMark(t, im.Collector)
			checkTricolor("at mark start")
			for round := 0; im.Collector.Phase() == gc.PhaseMark && round < 5_000; round++ {
				if !faulted() {
					// The worker allocates — and eventually faults —
					// while the collector is marking.
					if _, f := im.Step(400); f != nil {
						t.Fatal(f)
					}
				} else {
					// Destroy one of the faulted worker's objects and
					// create a replacement from the same heap, all
					// mid-mark.
					if reclaimOne() {
						destroyed++
					}
					if o, f := im.SROs.Create(heap, obj.CreateSpec{
						Type: obj.TypeGeneric, DataLen: 16,
					}); f == nil {
						created++
						// Hook some replacements into the live graph so
						// the write barrier must shade them.
						if f := im.Table.StoreAD(live[rng.Intn(len(live))], uint32(rng.Intn(2)), o); f != nil {
							t.Fatal(f)
						}
					}
				}
				// Barrier traffic among survivors.
				from, to := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
				if f := im.Table.StoreAD(from, uint32(rng.Intn(2)), to); f != nil {
					t.Fatal(f)
				}
				checkTricolor("after mid-mark mutation")
				if _, _, f := im.Collector.Step(2); f != nil {
					t.Fatal(f)
				}
			}
			drainCycle(t, im.Collector)
			checkTricolor("after cycle")
			refreshLive()
		}
		if !faulted() {
			t.Fatalf("trial %d: worker never faulted", trial)
		}
		if destroyed == 0 || created == 0 {
			t.Fatalf("trial %d: no mid-mark churn (destroyed=%d created=%d)", trial, destroyed, created)
		}
		if code, f := im.Procs.FaultCode(worker); f != nil || code != obj.FaultBounds {
			t.Fatalf("trial %d: fault code %v (%v), want bounds", trial, code, f)
		}
		if n, f := im.Ports.Count(fp); f != nil || n != 1 {
			t.Fatalf("trial %d: fault port count %d (%v), want the parked worker", trial, n, f)
		}

		// One more full cycle with the system quiescent, then the whole
		// audit: every published root must have survived and no subsystem
		// invariant may be out of joint.
		if _, f := im.Collector.Collect(); f != nil {
			t.Fatal(f)
		}
		for _, v := range auditor.CheckAll() {
			t.Errorf("trial %d: post-cycle violation: %s %v %s", trial, v.Subsystem, v.Obj, v.Msg)
		}
		for i, o := range published {
			d := im.Table.DescriptorAt(o.Index)
			if d == nil || d.Gen != o.Gen {
				t.Fatalf("trial %d: published root %d (index %d) lost to the collector", trial, i, o.Index)
			}
		}
	}
}
