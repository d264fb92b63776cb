// Command benchmark is the repository's one benchmark: six workloads, one
// per door into the simulated machine, each reporting the same end-to-end
// metrics, plus per-layer metrics taken from outside the simulator (a CPU
// profile, the kernel trace counters and unit-cost probes). README.md in
// this directory says what every name means and why each workload exists.
//
//	go run ./benchmark -seed 42 -out DIR          the whole benchmark
//	go run ./benchmark -aa                        run it twice and compare
//	go run ./benchmark --workload serve --seed 3 --seconds 20 --trace 0
//
// The last form is the driver's: one workload, a time budget, and as the
// last line of standard output one JSON object with the metrics
// BENCHMARK.json declares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/vtime"
)

const (
	defaultSeed = 42
	defaultReps = 15
	tracedReps  = 5 // profiled repetitions per workload, for enough samples
	minReps     = 3 // a time budget never cuts a workload below this
)

type options struct {
	seed     int64
	scale    float64
	reps     int
	seconds  float64
	workload string
	trace    int
	out      string
	aa       bool
	batches  int // probe batches; probeBatches outside tests
}

// liveHeap is the Go heap in use after a forced collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// workloadResult is everything the benchmark says about one workload.
type workloadResult struct {
	Name        string             `json:"name"`
	Correct     bool               `json:"correct"`
	Error       string             `json:"error,omitempty"`
	Attempted   uint64             `json:"attempted"`
	Failed      uint64             `json:"failed"`
	Fingerprint string             `json:"fingerprint"`
	Reps        int                `json:"reps"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	HostDist    map[string]dist    `json:"host_distributions"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Samples     int64              `json:"profile_samples,omitempty"`

	def    *workloadDef
	reps   []rep
	traced []rep
	spent  float64
	last   float64
}

// report is results.json.
type report struct {
	Default    bool              `json:"default"`
	Seed       int64             `json:"seed"`
	Scale      float64           `json:"scale"`
	Reps       int               `json:"reps"`
	Seconds    float64           `json:"seconds"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	GitCommit  string            `json:"git_commit"`
	Workloads  []*workloadResult `json:"workloads"`
}

func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// fail marks every op of the workload failed: a broken determinism or
// output check says nothing the workload printed can be trusted.
func (w *workloadResult) fail(err error) {
	w.Correct = false
	if w.Error == "" {
		w.Error = err.Error()
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s FAILED: %v\n", w.Name, err)
}

// wants reports whether the workload should run repetition r of a phase
// that is either reps long or, with a positive budget, lasts until the
// next repetition would overrun seconds (but at least floor repetitions).
func (w *workloadResult) wants(r, reps int, seconds float64, floor int) bool {
	if !w.Correct {
		return false
	}
	if seconds <= 0 {
		return r < reps
	}
	return r < floor || w.spent+w.last <= seconds
}

// record adds a finished repetition and holds it to the first one's
// fingerprint: virtual-time results are pure functions of the inputs.
func (w *workloadResult) record(r rep, traced bool) {
	if w.Fingerprint == "" {
		w.Fingerprint = r.out.fingerprint
	} else if r.out.fingerprint != w.Fingerprint {
		w.fail(fmt.Errorf("repetition fingerprint %s differs from the first, %s", r.out.fingerprint, w.Fingerprint))
	}
	w.Attempted += r.out.issued
	w.Failed += r.out.failed
	if traced {
		w.traced = append(w.traced, r)
	} else {
		w.reps = append(w.reps, r)
	}
}

// runAll runs the selected workloads: untraced repetitions interleaved
// round-robin so each workload samples the whole measurement window, then
// (with tracing asked for) the traced repetitions, the probes and the
// serve ladder.
func runAll(opt *options, sp *spans) (*report, error) {
	rp := &report{
		Seed: opt.seed, Scale: opt.scale, Reps: opt.reps, Seconds: opt.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: gitCommit(),
	}
	rp.Default = opt.seed == defaultSeed && opt.scale == 1 && opt.reps == defaultReps &&
		opt.seconds == 0 && opt.workload == "" && rp.GOMAXPROCS == rp.NProc
	for i := range workloads {
		if opt.workload == "" || opt.workload == workloads[i].name {
			rp.Workloads = append(rp.Workloads, &workloadResult{Name: workloads[i].name, Correct: true, def: &workloads[i]})
		}
	}
	if len(rp.Workloads) == 0 {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}

	// With a time budget and tracing, the untraced repetitions (needed
	// for trace.overhead_ratio only) get the smaller part of it.
	untracedS, tracedS := opt.seconds, 0.0
	if opt.trace == 1 {
		untracedS, tracedS = opt.seconds*0.3, opt.seconds*0.4
	}
	heapBase := liveHeap() // the runner's own footprint, the reference kernel's store included
	oneRep := func(w *workloadResult, r int, traced bool) {
		if sp != nil {
			sp.workload, sp.rep = w.Name, fmt.Sprintf("%d", r)
			if traced {
				sp.rep = fmt.Sprintf("traced-%d", r)
			}
		}
		t0 := time.Now()
		end := sp.begin("repetition")
		m, err := runRep(w.def, opt.seed, opt.scale, traced, r == 0, heapBase, sp)
		end()
		if err != nil {
			w.fail(err)
			return
		}
		w.record(m, traced)
		w.last = time.Since(t0).Seconds()
		w.spent += w.last
	}
	for r := 0; ; r++ {
		ran := false
		for _, w := range rp.Workloads {
			if w.wants(r, opt.reps, untracedS, minReps) {
				oneRep(w, r, false)
				ran = true
			}
		}
		if !ran {
			break
		}
	}

	var probed map[string]float64
	if opt.trace == 1 {
		for _, w := range rp.Workloads {
			w.spent = 0
			for r := 0; w.wants(r, min(tracedReps, opt.reps), tracedS, 1); r++ {
				oneRep(w, r, true)
			}
		}
		if sp != nil {
			sp.workload, sp.rep = "", "probes"
		}
		var err error
		if probed, err = runProbes(opt.batches, sp); err != nil {
			return nil, err
		}
	}

	for _, w := range rp.Workloads {
		if len(w.reps) == 0 {
			w.Failed, w.Attempted = max(w.Attempted, 1), max(w.Attempted, 1)
			continue
		}
		w.Reps = len(w.reps)
		w.EndToEnd, w.HostDist = endToEndOf(w.reps)
		if !w.Correct {
			w.Failed = w.Attempted
		}
		if len(w.traced) == 0 {
			continue
		}
		w.perLayerOf(probed)
		if w.Name == "serve" {
			if sp != nil {
				sp.workload, sp.rep = w.Name, "ladder"
			}
			slo, err := ladder(opt.seed, opt.scale, sp)
			if err != nil {
				w.fail(err)
			}
			w.PerLayer["virt_slo_rps"] = slo
		}
	}
	return rp, nil
}

// perLayerOf derives the workload's per-layer metrics: host shares from
// the traced repetitions' pooled profiles, counts per op from the first
// traced repetition, and the probes' unit costs, which are the same for
// every workload of the invocation.
func (w *workloadResult) perLayerOf(probed map[string]float64) {
	var samples []stackSample
	fastest := math.Inf(1)
	for _, t := range w.traced {
		samples = append(samples, t.profile...)
		fastest = math.Min(fastest, t.runS)
	}
	w.PerLayer, w.Samples = attribute(samples)
	c := &counts{ev: w.traced[0].events, out: w.traced[0].out, tracedS: fastest, untraced: w.HostDist["run_s"].Best}
	for _, cm := range countMetrics {
		w.PerLayer[cm.name] = cm.value(c)
	}
	for k, v := range probed {
		w.PerLayer[k] = v
	}
	w.PerLayer["host.ref_kernel_ms"] = 1e3 * w.HostDist["ref_kernel_s"].Best
	w.PerLayer["fail_ratio"] = ratio(float64(w.Failed), float64(w.Attempted))
	w.PerLayer["virt_slo_rps"] = 0 // serve alone has a ladder
}

// The serve ladder: six offered rates at a fixed population, one run per
// rung since each is deterministic. virt_slo_rps is the offered rate of
// the highest rung at which every class's p99 is within sloCycles and
// nothing was censored, with no failing rung below it.
var ladderGaps = []vtime.Cycles{1000, 700, 500, 400, 330, 280}

const sloCycles = 200_000 // 25 ms at 8 MHz

func ladder(seed int64, scale float64, sp *spans) (float64, error) {
	slo := 0.0
	for _, gap := range ladderGaps {
		inst, err := newServe(serveConfig(seed, scaled(ladderSessions, scale, 500), gap), false, false)
		if err != nil {
			return 0, err
		}
		if err := inst.run(sp); err != nil {
			return 0, err
		}
		res := inst.(*serveInst).res
		ok := res.Censored == 0 && res.Unissued == 0
		for _, c := range res.Classes {
			ok = ok && c.Latency.P99Cycles <= sloCycles
		}
		if !ok {
			break
		}
		slo = vtime.HzDefault / float64(gap)
	}
	return slo, nil
}

func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e15:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// printReport prints every metric by name with its unit.
func printReport(rp *report) {
	fmt.Printf("benchmark: seed %d scale %g reps %d seconds %g nproc %d GOMAXPROCS %d %s commit %s default=%v\n",
		rp.Seed, rp.Scale, rp.Reps, rp.Seconds, rp.NProc, rp.GOMAXPROCS, rp.GoVersion, rp.GitCommit, rp.Default)
	for _, w := range rp.Workloads {
		fmt.Printf("\n== %s: %s; op = %s; %d repetitions, correct=%v, failed %d of %d\n",
			w.Name, w.def.why, w.def.op, w.Reps, w.Correct, w.Failed, w.Attempted)
		for _, d := range endToEnd {
			line := fmt.Sprintf("%-14s %-26s %16s %-12s", w.Name, d.name, fmtValue(w.EndToEnd[d.name]), d.unit)
			if h, ok := w.HostDist[d.name]; ok {
				line += fmt.Sprintf(" unscaled: best %s median %s q1 %s q3 %s", fmtValue(h.Best), fmtValue(h.Median), fmtValue(h.Q1), fmtValue(h.Q3))
			}
			fmt.Println(strings.TrimRight(line, " "))
		}
		if h, ok := w.HostDist["ref_kernel_s"]; ok {
			fmt.Printf("%-14s %-26s %16s %-12s host times above are scaled by %g/this (ref.go)\n", w.Name, "(reference kernel)", fmtValue(h.Best), "s", refNominalS)
		}
		if w.PerLayer == nil {
			continue
		}
		fmt.Printf("-- per layer (%d profile samples)\n", w.Samples)
		for _, d := range perLayer() {
			fmt.Printf("%-14s %-34s %16s %s\n", w.Name, d.name, fmtValue(w.PerLayer[d.name]), d.unit)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the driver's result object for a one-workload run.
func contractLine(w *workloadResult, trace int) ([]byte, error) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, map[string]metricValue{}}
	defs, vals := endToEnd, w.EndToEnd
	if trace == 1 {
		defs, vals = perLayer(), w.PerLayer
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return json.Marshal(out)
}

// runSeconds is the time budget the driver gives one run of one workload.
const runSeconds = 20

// describe renders BENCHMARK.json from the runner's own tables, so the
// declaration cannot drift from what is emitted (bench_test.go compares).
func describe() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	d := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		d.Workloads = append(d.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		d.EndToEnd = append(d.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer() {
		d.PerLayer = append(d.PerLayer, layer{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(d, "", "  ")
	return append(b, '\n'), err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	opt := options{batches: probeBatches}
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "workload seed; the simulator sees only the inputs generated from it")
	flag.Float64Var(&opt.scale, "scale", 1, "population scale, for local use (results mark themselves non-default)")
	flag.IntVar(&opt.reps, "reps", defaultReps, "untraced repetitions per workload")
	flag.Float64Var(&opt.seconds, "seconds", 0, "time budget per workload in seconds; replaces -reps when positive")
	flag.StringVar(&opt.workload, "workload", "", "run one workload and print the driver's JSON result as the last line")
	flag.IntVar(&opt.trace, "trace", -1, "with -workload: 0 prints end-to-end metrics, 1 per-layer metrics; default: everything")
	flag.StringVar(&opt.out, "out", "", "directory for results.json and trace.json")
	desc := flag.Bool("describe", false, "print BENCHMARK.json as the runner's tables define it, and exit")
	flag.BoolVar(&opt.aa, "aa", false, "run the whole benchmark twice and compare the two against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || opt.reps < 1 || opt.scale <= 0 || opt.trace < -1 || opt.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *desc {
		b, err := describe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}
	contract := opt.workload != "" && opt.trace >= 0
	if !contract {
		opt.trace = 1
	}
	if opt.aa {
		os.Exit(runAA(&opt))
	}

	var sp *spans
	if opt.out != "" {
		sp = newSpans()
	}
	rp, err := runAll(&opt, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printReport(rp)
	if opt.out != "" {
		err := os.MkdirAll(opt.out, 0o755)
		if err == nil {
			err = writeJSON(filepath.Join(opt.out, "results.json"), rp)
		}
		if err == nil {
			err = writeJSON(filepath.Join(opt.out, "trace.json"), sp.all)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	code := 0
	for _, w := range rp.Workloads {
		if !w.Correct {
			code = 1
		}
	}
	if contract {
		line, err := contractLine(rp.Workloads[0], opt.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Printf("\n%s\n", line)
	}
	os.Exit(code)
}
