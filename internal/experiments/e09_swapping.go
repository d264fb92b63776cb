package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obj"
	"repro/internal/vtime"
)

func init() { register("E9", runE9) }

// runE9 reproduces the §6.2 memory-management claim: one interface, two
// implementations ("Both a swapping and a non-swapping implementation
// meet this specification"), with most applications unaffected by the
// selection. The experiment runs the same allocate-and-touch workload at
// increasing overcommit ratios on both managers and reports where each
// survives and what the swapping one pays.
func runE9() *Result {
	const (
		physMem = 512 * 1024
		objSize = 8 * 1024
	)
	ratios := []float64{0.5, 1.0, 2.0, 4.0}

	res := &Result{
		ID:     "E9",
		Title:  "Swapping vs non-swapping memory management",
		Claim:  "§6.2: both implementations meet the single specification; applications select one without changing",
		Header: []string{"overcommit", "manager", "allocated", "swap-outs", "swap-ins", "swap cycles", "outcome"},
		Notes: []string{
			fmt.Sprintf("%d KB physical memory, %d KB objects, every object touched twice after allocation", physMem/1024, objSize/1024),
			"the backing store stands in for the paper's swapping device (DESIGN.md substitutions)",
		},
	}

	type outcome struct {
		allocated int
		refused   bool
	}
	var nonswapAt2x, swapAt2x outcome
	for _, ratio := range ratios {
		want := int(float64(physMem) / objSize * ratio)
		for _, swapping := range []bool{false, true} {
			im := try(core.Boot(core.Config{Swapping: swapping, MemoryBytes: physMem}))
			allocated, refused := 0, false
			var objs []obj.AD
			for i := 0; i < want; i++ {
				ad, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: objSize})
				if f != nil {
					refused = true
					break
				}
				objs = append(objs, ad)
				allocated++
			}
			verified := true
			if !refused {
				for pass := 0; pass < 2; pass++ {
					for i, ad := range objs {
						if im.Swapper != nil {
							check(im.Swapper.EnsureResident(ad.Index))
						}
						if pass == 0 {
							check(im.Table.WriteDWord(ad, 0, uint32(i)))
						} else if must(im.Table.ReadDWord(ad, 0)) != uint32(i) {
							verified = false
						}
					}
				}
			}
			name := im.MM.Name()
			var outs, ins uint64
			var cost vtime.Cycles
			if im.Swapper != nil {
				outs, ins, cost = im.Swapper.SwapOuts, im.Swapper.SwapIns, im.Swapper.SwapCycles
			}
			status := "all touched, verified"
			if refused {
				status = fmt.Sprintf("refused at %d objects", allocated)
			} else if !verified {
				status = "DATA CORRUPTED"
			}
			res.Rows = append(res.Rows, row(fmt.Sprintf("%.1f×", ratio), name,
				fmt.Sprint(allocated), fmt.Sprint(outs), fmt.Sprint(ins),
				fmt.Sprint(uint64(cost)), status))
			if ratio == 2.0 {
				if swapping {
					swapAt2x = outcome{allocated, refused}
				} else {
					nonswapAt2x = outcome{allocated, refused}
				}
			}
		}
	}
	res.Pass = nonswapAt2x.refused && !swapAt2x.refused &&
		swapAt2x.allocated > nonswapAt2x.allocated
	res.Verdict = fmt.Sprintf("at 2× overcommit: non-swapping refused after %d objects, swapping completed %d",
		nonswapAt2x.allocated, swapAt2x.allocated)
	return res
}
