package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// rep is one repetition of a workload on a freshly built world: host-side
// measurements around the timed region plus the simulated outcome.
type rep struct {
	setupS, runS, cpuS  float64
	mallocs, allocBytes uint64
	liveHeapMB          float64
	refS                [2]float64 // the reference kernel, before set-up and after the run
	out                 outcome

	// Traced repetitions only: per-kind trace events emitted during the
	// run (summed over nodes) and the CPU profile of the run.
	events  []uint64
	profile []stackSample
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func snapshotKinds(logs []*trace.Log) []uint64 {
	sum := make([]uint64, trace.NumKinds())
	for _, l := range logs {
		_, counts := l.Snapshot()
		for k, n := range counts {
			sum[k] += n
		}
	}
	return sum
}

// runRep builds a world, runs it once and measures it. With traced set
// the world records kernel events and the run is CPU-profiled; end-to-end
// metrics never come from such a repetition. check runs the workload's
// output checks after everything is measured.
func runRep(w *workloadDef, seed int64, scale float64, traced, check bool, heapBase uint64, sp *spans) (rep, error) {
	var r rep
	// Collect the previous repetition's world first, so every set-up starts
	// from the same allocator state: it reuses (and must zero) that world's
	// memory, where otherwise it would sometimes get fresh pages from the
	// operating system and sometimes not.
	runtime.GC()
	r.refS[0] = refKernel()
	endSetup := sp.begin("setup")
	t0 := time.Now()
	inst, err := w.build(seed, scale, traced)
	r.setupS = time.Since(t0).Seconds()
	endSetup()
	if err != nil {
		return r, fmt.Errorf("%s: set-up: %w", w.name, err)
	}

	runtime.GC()
	var before, after runtime.MemStats
	var prof bytes.Buffer
	var ev0 []uint64
	if traced {
		ev0 = snapshotKinds(inst.traces())
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("%s: profile: %w", w.name, err)
		}
	}
	runtime.ReadMemStats(&before)
	cpu0, t1 := cpuSeconds(), time.Now()
	err = inst.run(sp)
	r.runS = time.Since(t1).Seconds()
	r.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	if traced {
		pprof.StopCPUProfile()
	}
	r.refS[1] = refKernel()
	if err != nil {
		return r, fmt.Errorf("%s: run: %w", w.name, err)
	}
	r.mallocs = after.Mallocs - before.Mallocs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc

	if traced {
		r.events = snapshotKinds(inst.traces())
		for k := range r.events {
			r.events[k] -= ev0[k]
		}
		if r.profile, err = decodeProfile(prof.Bytes()); err != nil {
			return r, err
		}
	}
	endOut := sp.begin("outcome")
	r.out = inst.outcome()
	if lg, ok := inst.(interface{ ledgerBytes() int }); ok && traced {
		r.out.layer["ledger_bytes"] = float64(lg.ledgerBytes())
	}
	endOut()

	runtime.GC()
	runtime.ReadMemStats(&after)
	r.liveHeapMB = (float64(after.HeapAlloc) - float64(heapBase)) / (1 << 20)

	if check {
		endCheck := sp.begin("check")
		err = inst.check()
		endCheck()
		if err != nil {
			return r, fmt.Errorf("%s: output check: %w", w.name, err)
		}
	}
	runtime.KeepAlive(inst)
	return r, nil
}

// dist summarises the repetitions' values of one host-side quantity.
type dist struct {
	Best   float64 `json:"best"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarise reports the best (lowest) value with the median and quartiles
// beside it. Every quantity it is used on is better when lower.
func summarise(vals []float64) dist {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	q := func(p float64) float64 { // linear interpolation between order statistics
		if len(v) == 1 {
			return v[0]
		}
		x := p * float64(len(v)-1)
		i := int(x)
		if i+1 >= len(v) {
			return v[len(v)-1]
		}
		return v[i] + (x-float64(i))*(v[i+1]-v[i])
	}
	return dist{Best: v[0], Median: q(0.5), Q1: q(0.25), Q3: q(0.75), N: len(v)}
}

// refBest is the fastest reference-kernel time seen around the repetitions.
func refBest(reps []rep) float64 {
	best := reps[0].refS[0]
	for i := range reps {
		best = min(best, reps[i].refS[0], reps[i].refS[1])
	}
	return best
}

// endToEndOf derives the end-to-end metrics of a workload from its
// untraced repetitions. Every host-side metric takes the best repetition:
// the host's noise only ever adds time (and the Go runtime's own
// background work only ever adds allocations), so the minimum is the
// steadiest estimate of what the code costs. Host times are then scaled by
// refNominalS over the best reference-kernel time of the same repetitions,
// which takes out the part of the noise that lasts longer than a run (see
// ref.go); the distributions returned beside them are unscaled.
// setup_s alone takes the median: a small world's build time depends on
// whether the Go allocator hands back zeroed pages, and the fastest case is
// rare enough that its minimum jumps from one invocation to the next.
// Virtual-time metrics are the same in every repetition (the caller has
// checked that).
func endToEndOf(reps []rep) (map[string]float64, map[string]dist) {
	col := func(f func(*rep) float64) []float64 {
		out := make([]float64, len(reps))
		for i := range reps {
			out[i] = f(&reps[i])
		}
		return out
	}
	o := reps[0].out
	ops := float64(o.ops)
	d := map[string]dist{
		"setup_s":            summarise(col(func(r *rep) float64 { return r.setupS })),
		"run_s":              summarise(col(func(r *rep) float64 { return r.runS })),
		"cpu_s":              summarise(col(func(r *rep) float64 { return r.cpuS })),
		"allocs_per_op":      summarise(col(func(r *rep) float64 { return ratio(float64(r.mallocs), ops) })),
		"alloc_bytes_per_op": summarise(col(func(r *rep) float64 { return ratio(float64(r.allocBytes), ops) })),
		"live_heap_mb":       summarise(col(func(r *rep) float64 { return r.liveHeapMB })),
		"ref_kernel_s":       summarise(append(col(func(r *rep) float64 { return r.refS[0] }), col(func(r *rep) float64 { return r.refS[1] })...)),
	}
	scale := refNominalS / refBest(reps)
	runS := d["run_s"].Best * scale
	virtS := float64(o.cycles) / vtime.HzDefault
	m := map[string]float64{
		"setup_s":            d["setup_s"].Median * scale,
		"run_s":              runS,
		"cpu_s":              d["cpu_s"].Best * scale,
		"host_ops_per_s":     ratio(ops, runS),
		"host_mips":          ratio(float64(o.instructions)/1e6, runS),
		"allocs_per_op":      d["allocs_per_op"].Best,
		"alloc_bytes_per_op": d["alloc_bytes_per_op"].Best,
		"live_heap_mb":       d["live_heap_mb"].Best,
		"virt_cycles":        float64(o.cycles),
		"virt_ops_per_s":     ratio(ops, virtS),
		"virt_ipc":           ratio(float64(o.instructions), float64(o.cycles)*float64(o.processors)),
		"virt_p50_cycles":    float64(o.p50),
		"virt_p99_cycles":    float64(o.p99),
		"virt_p999_cycles":   float64(o.p999),
	}
	return m, d
}
