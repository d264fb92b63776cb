package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/pm"
	"repro/internal/workload"
)

func init() { register("E8", runE8) }

// runE8 reproduces the §6.1 configurability claim: the null policy
// "simply passes through the dispatching parameters of the hardware" and
// is unacceptable in a multi-user environment, while a user-process
// manager can build a fair policy on the same basic process manager. The
// experiment runs eight competing users (one asking for everything) under
// both policies and reports the Jain fairness index and the hog's share.
func runE8() *Result {
	const users = 8

	shares := func(fair bool) []uint32 {
		im := try(core.Boot(core.Config{Processors: 1}))
		basic := pm.NewBasic(im.System)
		sched := pm.NewFairScheduler(basic, 2_000)
		dom := must(workload.Domain(im.System, []isa.Instr{
			isa.MovI(1, 100_000_000),
			isa.AddI(1, 1, ^uint32(0)),
			isa.BrNZ(1, 1),
			isa.Halt(),
		}))
		check(im.Publish(0, dom))
		var procs []obj.AD
		for i := 0; i < users; i++ {
			prio, slice := uint16(1), uint32(2_000)
			if i == 0 {
				prio, slice = 9, 0 // the hog's chosen parameters
			}
			p := must(basic.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{Priority: prio, TimeSlice: slice}))
			procs = append(procs, p)
			check(im.Publish(uint32(1+i), p))
			if fair {
				check(sched.Adopt(p))
			}
		}
		if fair {
			must(basic.CreateNativeProcess(sched.Body(8_000), obj.NilAD, gdp.SpawnSpec{Priority: 15}))
		}
		for i := 0; i < 800; i++ {
			must(im.Step(2_000))
		}
		out := make([]uint32, users)
		for i, p := range procs {
			out[i] = must(im.Procs.CPUCycles(p))
		}
		return out
	}

	nullShares, fairShares := shares(false), shares(true)

	res := &Result{
		ID:     "E8",
		Title:  "Scheduling policy by package selection: null vs fair",
		Claim:  "§6.1: the null policy lets users overcommit dispatching parameters; a fair policy built on the basic manager allocates the processor fairly",
		Header: []string{"policy", "hog share", "Jain fairness index"},
		Rows: [][]string{
			row("null (pass-through)", share0(nullShares), fmt.Sprintf("%.3f", jainIdx(nullShares))),
			row("fair scheduler", share0(fairShares), fmt.Sprintf("%.3f", jainIdx(fairShares))),
		},
		Notes: []string{
			"the hog requests priority 9 and an unbounded time slice; others priority 1, 2000-cycle slices",
			"the fair scheduler adopts clients, imposes quanta, and rebalances priority against consumed cycles on the interval timer",
		},
	}
	res.Pass = jainIdx(nullShares) < 0.3 && jainIdx(fairShares) > 0.85
	res.Verdict = fmt.Sprintf("fairness %0.3f under null policy vs %0.3f under the fair package",
		jainIdx(nullShares), jainIdx(fairShares))
	return res
}

func jainIdx(xs []uint32) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += float64(x)
		sumSq += float64(x) * float64(x)
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

func share0(xs []uint32) string {
	var total uint64
	for _, x := range xs {
		total += uint64(x)
	}
	if total == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(xs[0])/float64(total))
}
