package main

import (
	"fmt"
	"math"
)

// runAA runs the whole benchmark twice in one process and compares the
// two runs metric by metric against the bounds the benchmark sets for
// itself: if two runs of the same code disagree by more than a bound, the
// bound cannot tell a regression from noise. The output is Markdown
// (benchmark/AA.md is a committed copy). It returns the exit code.
func runAA(opt *options) int {
	var runs [2]*report
	for i := range runs {
		o := *opt
		o.trace = 0
		rp, err := runAll(&o, nil)
		if err != nil {
			fmt.Println("benchmark:", err)
			return 1
		}
		runs[i] = rp
	}
	a, b := runs[0], runs[1]
	fmt.Printf("# A/A: two runs of the same code\n\nseed %d, scale %g, %d repetitions, nproc %d, GOMAXPROCS %d, %s, commit %s, default=%v\n\n",
		a.Seed, a.Scale, a.Reps, a.NProc, a.GOMAXPROCS, a.GoVersion, a.GitCommit, a.Default)
	fmt.Println("| workload | metric | unit | run A | run B | B worse by | bound | |")
	fmt.Println("| --- | --- | --- | ---: | ---: | ---: | ---: | --- |")
	code := 0
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if !wa.Correct || !wb.Correct || wa.Failed+wb.Failed > 0 {
			fmt.Printf("| %s | fail_ratio | ratio | %d of %d | %d of %d | | 0 | FAIL |\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			worse := (vb - va) / va
			if d.better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "ok"
			if math.Abs(worse) > d.bound { // either run may be the slow one
				verdict, code = "FAIL", 1
			}
			fmt.Printf("| %s | %s | %s | %s | %s | %+.2f%% | %g%% | %s |\n",
				wa.Name, d.name, d.unit, fmtValue(va), fmtValue(vb), 100*worse, 100*d.bound, verdict)
		}
	}
	if code != 0 {
		fmt.Println("\nA/A FAILED: the runs differ by more than a bound.")
	} else {
		fmt.Println("\nA/A passed: every metric of every workload agrees within its bound.")
	}
	return code
}
