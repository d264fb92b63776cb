package experiments

import (
	"fmt"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/mm"
	"repro/internal/obj"
	"repro/internal/vtime"
	"repro/internal/workload"
)

func init() { register("E2", runE2) }

// runE2 reproduces the §5 allocation cost claim: allocating a segment
// from an SRO via the create instruction takes 80 µs at 8 MHz, and this
// must be "relatively fast since storage allocation plays an important
// role in an object oriented system". The experiment sweeps object sizes
// and heap kinds (global and local SRO) through the executing create
// instruction and checks the cost is flat with size and lands on the
// calibrated figure.
func runE2() *Result {
	const allocs = 500
	sizes := []uint32{16, 256, 4096, 32 * 1024, 64 * 1024}

	res := &Result{
		ID:     "E2",
		Title:  "Segment allocation from an SRO",
		Claim:  "§5: creating a segment from an SRO takes 80 µs at 8 MHz, independent of workload",
		Header: []string{"heap", "object bytes", "cycles/create", "µs @8MHz"},
		Notes: []string{
			"cost covers the full executing path: claim check, first-fit carve, zeroing policy, descriptor install",
			"80 µs is a calibration constant; flatness across sizes and heap kinds is the measured shape",
		},
	}

	var worst, best float64
	for _, local := range []bool{false, true} {
		for _, size := range sizes {
			perAlloc := measureCreate(size, allocs, local)
			us := vtime.Cycles(perAlloc).Microseconds()
			heap := "global"
			if local {
				heap = "local"
			}
			res.Rows = append(res.Rows, row(heap, fmt.Sprint(size),
				fmt.Sprintf("%.0f", perAlloc), fmt.Sprintf("%.1f", us)))
			if best == 0 || us < best {
				best = us
			}
			if us > worst {
				worst = us
			}
		}
	}
	res.Pass = best > 75 && worst < 90 && worst/best < 1.1
	res.Verdict = fmt.Sprintf("measured %.1f–%.1f µs per create across sizes and heaps (flat, on the 80 µs calibration)", best, worst)
	return res
}

// measureCreate runs an allocation loop in the VM against a heap (global
// or local SRO) and reports cycles per create instruction.
func measureCreate(size uint32, allocs int, local bool) float64 {
	sys := try(gdp.New(gdp.Config{MemoryBytes: 128 << 20}))
	heap := sys.Heap
	if local {
		heap = must(mm.NewNonSwapping(sys.SROs).NewLocalHeap(sys.Heap, 1, 0))
	}
	dom := must(workload.Domain(sys, []isa.Instr{
		isa.MovI(4, uint32(allocs)),
		isa.MovI(2, size),
		isa.MovI(3, 0),
		isa.Create(1, 0, 2),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 3),
		isa.Halt(),
	}))
	p := must(sys.Spawn(dom, gdp.SpawnSpec{AArgs: [4]obj.AD{heap}}))
	overhead := vtime.Cycles(allocs) * (vtime.CostALU + vtime.CostBranch)
	return float64(busyCycles(sys, p)-overhead) / float64(allocs)
}
