// Pipeline: the §3 multiprocessor story. A processing pipeline —
// generate, transform, transform, transform, accumulate — is wired together
// with hardware ports (workload.Pipeline) and run unchanged on 1, 2, 4 and
// 8 processors. "The 432 hardware ... makes the existence of multiple
// general data processors transparent to virtually all of the system
// software": the only thing that changes between runs is the Processors
// field of the boot configuration, and the only observable difference is
// the elapsed virtual time.
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/vtime"
	"repro/internal/workload"
)

const (
	items  = 200 // work items through the pipeline
	stages = 4   // three transforms and the accumulator, behind the generator
)

func main() {
	fmt.Printf("pipeline: %d items through a generator and %d stages\n\n", items, stages)
	fmt.Printf("%-6s %-24s %-10s %-12s %s\n", "CPUs", "virtual time", "speedup", "dispatches", "result")
	var base vtime.Cycles
	for _, cpus := range []int{1, 2, 4, 8} {
		elapsed, sum, dispatches := run(cpus)
		if base == 0 {
			base = elapsed
		}
		fmt.Printf("%-6d %-24v %-10.2f %-12d %d\n",
			cpus, elapsed, float64(base)/float64(elapsed), dispatches, sum)
	}
	fmt.Printf("\nsame binary, same answer (%d) on every row; processors are transparent (§3)\n",
		workload.PipelineExpected(stages, items))
}

func run(cpus int) (vtime.Cycles, uint32, uint64) {
	im, err := core.Boot(core.Config{Processors: cpus})
	if err != nil {
		log.Fatal(err)
	}
	// Generous port capacity keeps the pipeline from serialising on
	// backpressure.
	h, f := workload.Pipeline(im.System, stages, items, 16, 4_000)
	if f != nil {
		log.Fatal(f)
	}
	elapsed, f := im.RunUntil(func() bool { return h.Done(im.System) }, 2_000_000_000)
	if f != nil {
		log.Fatalf("cpus=%d: %v", cpus, f)
	}
	if err := h.Verify(im.System, stages, items); err != nil {
		log.Fatalf("cpus=%d: %v", cpus, err)
	}
	sum, _ := im.Table.ReadDWord(h.Results[0], 0)
	return elapsed, sum, im.Stats().Dispatches
}
