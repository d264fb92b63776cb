// Swapdemo: the §6.2 configurability story. The same program — a working
// set of data objects written and re-read — is run on two iMAX
// configurations that differ only in the memory-management package
// selected: the release-1 non-swapping implementation and the release-2
// swapping one. Within physical memory both behave identically; beyond
// it the non-swapping manager refuses the allocation while the swapping
// manager transparently evicts and restores, at a measurable cost.
//
// Run with: go run ./examples/swapdemo
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/obj"
)

const (
	physMem   = 256 * 1024
	objSize   = 8 * 1024
	touchRuns = 3
)

func main() {
	fmt.Printf("swapdemo: %d KB physical memory, %d KB objects\n\n", physMem/1024, objSize/1024)
	fmt.Printf("%-10s %-14s %-12s %-12s %-12s %s\n",
		"overcommit", "manager", "allocated", "swap-outs", "swap-ins", "outcome")
	for _, ratio := range []float64{0.5, 1.5, 3.0} {
		count := int(float64(physMem) / objSize * ratio)
		for _, swapping := range []bool{false, true} {
			run(ratio, count, swapping)
		}
	}
	compaction()
	fmt.Println("\none interface, two implementations; programs select, not adapt (§6.2)")
}

// compaction shows what the swapping manager can do about the holes a dead
// local heap leaves behind: every other object comes from a local heap,
// the heap is destroyed, and Compact slides the survivors down through the
// descriptor indirection. Their capabilities do not change.
func compaction() {
	im, err := core.Boot(core.Config{Swapping: true, MemoryBytes: physMem})
	if err != nil {
		log.Fatal(err)
	}
	local, f := im.MM.NewLocalHeap(im.Heap, 1, 0)
	if f != nil {
		log.Fatal(f)
	}
	var kept []obj.AD
	for i := 0; i < 16; i++ {
		heap := im.Heap
		if i%2 == 1 {
			heap = local
		}
		ad, f := im.MM.Allocate(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: objSize})
		if f != nil {
			log.Fatal(f)
		}
		if i%2 == 0 {
			if f := im.Table.WriteDWord(ad, 0, uint32(i)); f != nil {
				log.Fatal(f)
			}
			kept = append(kept, ad)
		}
	}
	if _, f := im.MM.DestroyHeap(local); f != nil {
		log.Fatal(f)
	}
	phys := im.Table.Memory()
	frags, largest := phys.FragCount(), phys.LargestFree()
	moved, _, f := im.Swapper.Compact()
	if f != nil {
		log.Fatal(f)
	}
	fmt.Printf("\ncompaction: a dead local heap left %d free fragments (largest %d KB); %d parts moved, %d fragments (largest %d KB)\n",
		frags, largest/1024, moved, phys.FragCount(), phys.LargestFree()/1024)
	if phys.FragCount() >= frags || phys.LargestFree() <= largest {
		log.Fatal("compaction did not reduce fragmentation")
	}
	for i, ad := range kept {
		if v, f := im.Table.ReadDWord(ad, 0); f != nil || v != uint32(2*i) {
			log.Fatalf("object %d reads %d after compaction: %v", 2*i, v, f)
		}
	}
}

func run(ratio float64, count int, swapping bool) {
	im, err := core.Boot(core.Config{Swapping: swapping, MemoryBytes: physMem})
	if err != nil {
		log.Fatal(err)
	}
	// The workload: allocate `count` objects, tag them, then touch them
	// all again touchRuns times (forcing swap-ins under pressure).
	var objs []obj.AD
	allocated := 0
	var failure *obj.Fault
	for i := 0; i < count; i++ {
		ad, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: objSize})
		if f != nil {
			failure = f
			break
		}
		if f := ensureWrite(im, ad, uint32(i)); f != nil {
			log.Fatal(f)
		}
		objs = append(objs, ad)
		allocated++
	}
	verified := true
	for r := 0; r < touchRuns && failure == nil; r++ {
		for i, ad := range objs {
			v, f := readThrough(im, ad)
			if f != nil {
				log.Fatal(f)
			}
			if v != uint32(i) {
				verified = false
			}
		}
	}

	name := im.MM.Name()
	var outs, ins uint64
	if im.Swapper != nil {
		outs, ins = im.Swapper.SwapOuts, im.Swapper.SwapIns
	}
	outcome := "all data verified"
	if failure != nil {
		outcome = fmt.Sprintf("refused at %d: %v", allocated, obj.AsFault(failure).Code)
	} else if !verified {
		outcome = "DATA CORRUPTED"
	}
	fmt.Printf("%-10.1f %-14s %-12d %-12d %-12d %s\n",
		ratio, name, allocated, outs, ins, outcome)
}

// ensureWrite writes through the manager, restoring residency first when
// the configuration swaps.
func ensureWrite(im *core.IMAX, ad obj.AD, v uint32) *obj.Fault {
	if im.Swapper != nil {
		if f := im.Swapper.EnsureResident(ad.Index); f != nil {
			return f
		}
	}
	return im.Table.WriteDWord(ad, 0, v)
}

func readThrough(im *core.IMAX, ad obj.AD) (uint32, *obj.Fault) {
	if im.Swapper != nil {
		if f := im.Swapper.EnsureResident(ad.Index); f != nil {
			return 0, f
		}
	}
	return im.Table.ReadDWord(ad, 0)
}
