package experiments

import (
	"fmt"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/vtime"
	"repro/internal/workload"
)

func init() { register("E3", runE3) }

// runE3 reproduces the §3 multiprocessor claim: "a factor of 10 in total
// processing power of a single 432 system is realizable", with the
// processors transparent to the software. The experiment runs a fixed
// batch of independent compute processes on 1..12 processors: the same
// binary, the same answers, a speedup curve that keeps climbing to the
// paper's factor-of-10 regime. Two caveats ride along as rows: how far the
// curve bends once every instruction waits on a shared bus (the 432's
// historical bottleneck, off in the rows above), and that processors can
// leave the mix mid-batch and come back with software none the wiser.
func runE3() *Result {
	const (
		workers = 24
		iters   = 4_000
	)
	cpuCounts := []int{1, 2, 4, 6, 8, 10, 12}

	res := &Result{
		ID:     "E3",
		Title:  "Multiprocessor scaling",
		Claim:  "§3: a factor of 10 in total processing power is realizable; multiple processors are transparent to the software",
		Header: []string{"processors", "virtual time (cy)", "speedup", "efficiency"},
		Notes: []string{
			fmt.Sprintf("%d independent worker processes, %d-iteration compute loops, one shared dispatch port", workers, iters),
			"no workload change across rows: transparency is the absence of any per-CPU code",
			"bus rows: 8 workers summing 1..1000, speedup is 1 processor ÷ 8 under the same wait; a 12-cycle wait makes eight processors slower than one, and the answers do not change",
			"offline row: processors 1 and 3 leave after 4 quanta with work bound and return 4 quanta later; speedup is against the undisturbed run",
		},
	}

	var base vtime.Cycles
	var at10 float64
	for _, cpus := range cpuCounts {
		elapsed := runBatch(cpus, workers, iters)
		if base == 0 {
			base = elapsed
		}
		speedup := float64(base) / float64(elapsed)
		res.Rows = append(res.Rows, row(
			fmt.Sprint(cpus), fmt.Sprint(uint64(elapsed)),
			fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("%.2f", speedup/float64(cpus))))
		if cpus == 10 {
			at10 = speedup
		}
	}
	// The bus caveat: eight summing workers on one and on eight processors,
	// each instruction waiting this many cycles per competing processor.
	var ideal, contended float64
	for _, wait := range []vtime.Cycles{0, 4, 12} {
		eight := runSums(8, wait, false)
		contended = float64(runSums(1, wait, false)) / float64(eight)
		if wait == 0 {
			ideal = contended
		}
		res.Rows = append(res.Rows, row(
			fmt.Sprintf("8, bus wait %d cy per competitor", wait), fmt.Sprint(uint64(eight)),
			fmt.Sprintf("%.2f", contended), fmt.Sprintf("%.2f", contended/8)))
	}
	full, degraded := runSums(8, 0, false), runSums(8, 0, true)
	res.Rows = append(res.Rows, row("8, two offline mid-batch, then back", fmt.Sprint(uint64(degraded)),
		fmt.Sprintf("%.2f", float64(full)/float64(degraded)), "same answers"))

	res.Pass = at10 > 7.0 && // factor-of-10 regime with scheduling overheads
		ideal >= 4 && contended < ideal*0.8 && degraded >= full
	res.Verdict = fmt.Sprintf("speedup at 10 processors = %.1f× (paper: factor of 10 realizable)", at10)
	return res
}

// runBatch runs `workers` independent compute processes on `cpus`
// processors and reports elapsed virtual time.
func runBatch(cpus, workers int, iters uint32) vtime.Cycles {
	sys := try(gdp.New(gdp.Config{Processors: cpus}))
	h := must(workload.Compute(sys, workers, iters, 2_000))
	elapsed := must(sys.Run(0))
	if !h.Done(sys) {
		fail("worker did not finish on %d cpus", cpus)
	}
	return elapsed
}

// runSums runs eight workers, each summing 1..1000 into its own word of a
// shared object, on cpus processors under the given bus wait, and reports
// the elapsed virtual time. With outage, processors 1 and 3 are taken out
// of service after four quanta and returned four quanta later. Every
// worker must finish with the right sum whatever the configuration.
func runSums(cpus int, busWait vtime.Cycles, outage bool) vtime.Cycles {
	sys := try(gdp.New(gdp.Config{Processors: cpus, BusContention: busWait}))
	out := must(sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64}))
	h := &workload.Handle{}
	for w := uint32(0); w < 8; w++ {
		dom := must(workload.Domain(sys, []isa.Instr{
			isa.MovI(1, 1_000),
			isa.MovI(0, 0),
			isa.Add(0, 0, 1),
			isa.AddI(1, 1, ^uint32(0)),
			isa.BrNZ(1, 2),
			isa.Store(0, 0, w*4),
			isa.Halt(),
		}))
		h.Procs = append(h.Procs, must(sys.Spawn(dom, gdp.SpawnSpec{TimeSlice: 2_000, AArgs: [4]obj.AD{out}})))
	}
	if outage {
		for _, online := range []bool{false, true} {
			for q := 0; q < 4; q++ {
				must(sys.Step(2_000))
			}
			check(sys.SetProcessorOnline(1, online))
			check(sys.SetProcessorOnline(3, online))
		}
	}
	must(sys.Run(0))
	for w := uint32(0); w < 8; w++ {
		if v := must(sys.Table.ReadDWord(out, w*4)); !h.Done(sys) || v != 500500 {
			fail("worker %d summed %d on %d processors (bus wait %d, outage %v)", w, v, cpus, busWait, outage)
		}
	}
	return sys.Now()
}
