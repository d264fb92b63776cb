package experiments

import (
	"fmt"

	"repro/internal/gdp"
	"repro/internal/vtime"
	"repro/internal/workload"
)

func init() { register("E3", runE3) }

// runE3 reproduces the §3 multiprocessor claim: "a factor of 10 in total
// processing power of a single 432 system is realizable", with the
// processors transparent to the software. The experiment runs a fixed
// batch of independent compute processes on 1..12 processors: the same
// binary, the same answers, a speedup curve that keeps climbing to the
// paper's factor-of-10 regime.
func runE3() (*Result, error) {
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
		},
	}

	var base vtime.Cycles
	var at10 float64
	for _, cpus := range cpuCounts {
		elapsed, err := runBatch(cpus, workers, iters)
		if err != nil {
			return nil, err
		}
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
	res.Pass = at10 > 7.0 // factor-of-10 regime with scheduling overheads
	res.Verdict = fmt.Sprintf("speedup at 10 processors = %.1f× (paper: factor of 10 realizable)", at10)
	return res, nil
}

// runBatch runs `workers` independent compute processes on `cpus`
// processors and reports elapsed virtual time.
func runBatch(cpus, workers int, iters uint32) (vtime.Cycles, error) {
	sys, err := gdp.New(gdp.Config{Processors: cpus})
	if err != nil {
		return 0, err
	}
	h, f := workload.Compute(sys, workers, iters, 2_000)
	if f != nil {
		return 0, f
	}
	elapsed, f := sys.Run(0)
	if f != nil {
		return 0, f
	}
	if !h.Done(sys) {
		return 0, fmt.Errorf("worker did not finish on %d cpus", cpus)
	}
	return elapsed, nil
}
