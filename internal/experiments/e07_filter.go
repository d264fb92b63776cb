package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obj"
	"repro/internal/port"
)

func init() { register("E7", runE7) }

// runE7 reproduces the §8.2 destruction-filter claim: a type manager can
// "guarantee that an object is properly disassembled when it becomes
// garbage" — the collector manufactures an AD for garbage instances of a
// filtered type and sends them to the manager's port, so lost physical
// resources (the paper's tape drives) are never silently reclaimed.
// The experiment loses 1000 drive objects and counts recoveries.
func runE7() *Result {
	const drives = 1000

	run := func(filtered bool) (recovered int) {
		im := try(core.Boot(core.Config{}))
		tdo := must(im.TDOs.Define("tape_drive", obj.LevelGlobal, obj.NilIndex))
		check(im.Publish(0, tdo))
		recovery := must(im.Ports.Create(im.Heap, drives+8, port.FIFO))
		check(im.Publish(1, recovery))
		if filtered {
			check(im.TDOs.ArmDestructionFilter(tdo, recovery))
		}
		for i := 0; i < drives; i++ {
			// Create a drive and immediately lose the capability.
			must(im.TDOs.CreateInstance(tdo, obj.CreateSpec{DataLen: 16}))
		}
		must(im.Collect())
		for {
			msg, ok, f := im.ReceiveMessage(recovery)
			check(f)
			if !ok {
				return recovered
			}
			if !must(im.TDOs.Is(tdo, msg)) {
				fail("recovery port delivered a non-drive")
			}
			recovered++
		}
	}

	recFiltered, recPlain := run(true), run(false)

	res := &Result{
		ID:     "E7",
		Title:  "Destruction filters recover lost objects",
		Claim:  "§8.2: garbage instances of a filtered type are delivered to the type manager's port instead of being reclaimed",
		Header: []string{"configuration", "drives lost", "drives recovered", "recovery rate"},
		Rows: [][]string{
			row("filter armed", fmt.Sprint(drives), fmt.Sprint(recFiltered),
				fmt.Sprintf("%.1f%%", 100*float64(recFiltered)/drives)),
			row("no filter (conventional)", fmt.Sprint(drives), fmt.Sprint(recPlain), "0.0%"),
		},
		Notes: []string{
			"first iMAX release used this facility to recover lost process objects; the next made it general (§8.2)",
			"recovered objects keep their hardware-checked type identity across the collector (§7.2)",
		},
	}
	res.Pass = recFiltered == drives && recPlain == 0
	res.Verdict = fmt.Sprintf("%d/%d lost drives recovered with the filter; %d without", recFiltered, drives, recPlain)
	return res
}
