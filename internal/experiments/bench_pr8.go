package experiments

// BenchPR8 measures the profile-guided trace compiler (internal/gdp
// trace.go): every workload runs at the three corners {cache off, cache
// on, cache+trace}, and the report records host wall-clock for each plus
// the derived ratios. The headline number is trace_speedup_serial —
// cache-only over cache+trace, i.e. what superinstruction fusion buys on
// top of the per-instruction fast path — and the binary hard-fails if it
// is under 3x on e3-compute or reg-loop, or if the trace fast path
// allocates. serial_nocache_ns/serial_cache_ns is the execution cache's
// own ratio on the same workloads. (The "serial" in the field names dates
// from when a host-parallel backend doubled the matrix; the names are the
// schema -perf-track reads, so they stay.)
//
// The allocation claim is measured, not asserted: a steady-state probe
// pins a hot register loop in compiled traces, then counts
// runtime.MemStats.Mallocs over a long measured window with GC disabled.
// Any malloc on the trace fast path shows up as a nonzero delta.
//
// The three corners must agree exactly on virtual cycles and results —
// the determinism contract the three-corner differential fuzz checks with
// full fingerprints — so results_equal is a correctness gate here too.

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/vtime"
)

// BenchPR8Run is one workload measured at all three corners (best of
// `reps` host wall-clock each).
type BenchPR8Run struct {
	Workload   string `json:"workload"`
	Processors int    `json:"processors"`
	Workers    int    `json:"workers"`

	SerialNocacheNs int64 `json:"serial_nocache_ns"`
	SerialCacheNs   int64 `json:"serial_cache_ns"`
	SerialTraceNs   int64 `json:"serial_trace_ns"`

	// TraceSpeedupSerial is the tentpole ratio: cache-only over
	// cache+trace — the cached fast path vs the same path with compiled
	// traces. TotalSpeedupSerial is uncached over traced.
	TraceSpeedupSerial float64 `json:"trace_speedup_serial"`
	TotalSpeedupSerial float64 `json:"total_speedup_serial"`

	VirtualCycles uint64 `json:"virtual_cycles"`
	ResultsEqual  bool   `json:"results_equal"`

	// Trace-compiler counters from the cache+trace run.
	TraceCompiled uint64 `json:"trace_compiled"`
	TraceFusedOps uint64 `json:"trace_fused_ops"`
	TraceEntries  uint64 `json:"trace_entries"`
	TraceInstrs   uint64 `json:"trace_instructions"`
	TraceDeopts   uint64 `json:"trace_deopts"`
	TraceExits    uint64 `json:"trace_exits"`
}

// BenchPR8Report is the JSON artifact written by imaxbench -bench-pr8.
type BenchPR8Report struct {
	HostInfo

	// TraceProbeInstrs is the instruction count of the steady-state
	// allocation probe's measured window; TraceSteadyMallocs is the host
	// mallocs observed over it (the 0-allocs/op contract demands 0), and
	// TraceAllocsPerOp the quotient.
	TraceProbeInstrs   uint64  `json:"trace_probe_instructions"`
	TraceSteadyMallocs uint64  `json:"trace_steady_mallocs"`
	TraceAllocsPerOp   float64 `json:"trace_allocs_per_op"`

	Runs []BenchPR8Run `json:"runs"`
}

// benchPR8Corner names one of the three corners in matrix order.
type benchPR8Corner struct {
	nocache, notrace bool
}

// BenchPR8 runs every workload at all three corners (best of `reps` host
// wall-clock), runs the steady-state allocation probe, enforces the
// ≥3x and 0-alloc gates, and writes the JSON report to path.
func BenchPR8(path string, reps int) (*BenchPR8Report, error) {
	if reps <= 0 {
		reps = 3
	}
	rep := &BenchPR8Report{HostInfo: hostInfo()}

	instrs, mallocs, err := benchTraceAllocProbe()
	if err != nil {
		return nil, fmt.Errorf("bench-pr8 alloc probe: %w", err)
	}
	rep.TraceProbeInstrs = instrs
	rep.TraceSteadyMallocs = mallocs
	if instrs > 0 {
		rep.TraceAllocsPerOp = float64(mallocs) / float64(instrs)
	}
	if mallocs != 0 {
		return nil, fmt.Errorf("bench-pr8: trace fast path allocated: %d mallocs over %d steady-state instructions",
			mallocs, instrs)
	}

	type workload struct {
		name       string
		processors int
		workers    int
		run        func(c benchPR8Corner) (vtime.Cycles, uint64, benchStats, error)
	}
	const (
		computeCPUs    = 6
		computeWorkers = 24
		computeIters   = 50_000
		pingpongMsgs   = 3_000
		regloopCPUs    = 4
		regloopWorkers = 8
		regloopIters   = 20_000
		mixedCPUs      = 4
		mixedWorkers   = 6
		mixedIters     = 30_000
		mixedMsgs      = 1_500
	)
	workloads := []workload{
		{"e3-compute", computeCPUs, computeWorkers, func(c benchPR8Corner) (vtime.Cycles, uint64, benchStats, error) {
			return benchCompute(computeCPUs, computeWorkers, computeIters, c.nocache, c.notrace)
		}},
		{"e12-pingpong", 2, 2, func(c benchPR8Corner) (vtime.Cycles, uint64, benchStats, error) {
			return benchPingPong(pingpongMsgs, c.nocache, c.notrace)
		}},
		{"reg-loop", regloopCPUs, regloopWorkers, func(c benchPR8Corner) (vtime.Cycles, uint64, benchStats, error) {
			return benchRegLoop(regloopCPUs, regloopWorkers, regloopIters, c.nocache, c.notrace)
		}},
		{"mixed-compute-pingpong", mixedCPUs, mixedWorkers + 2, func(c benchPR8Corner) (vtime.Cycles, uint64, benchStats, error) {
			return benchMixed(mixedCPUs, mixedWorkers, mixedIters, mixedMsgs, c.nocache, c.notrace)
		}},
	}
	corners := []benchPR8Corner{
		{true, true},   // uncached: the reference semantics
		{false, true},  // cached, no trace: the per-instruction fast path
		{false, false}, // cached + trace
	}
	for _, w := range workloads {
		var ns [3]int64
		var cy [3]vtime.Cycles
		var sum [3]uint64
		var ts gdp.TraceStats
		for i := 0; i < reps; i++ {
			for ci, c := range corners {
				ccy, csum, st, err := w.run(c)
				d := st.RunNs
				if err != nil {
					return nil, fmt.Errorf("%s nocache=%v notrace=%v: %w",
						w.name, c.nocache, c.notrace, err)
				}
				if i == 0 || d < ns[ci] {
					ns[ci] = d
				}
				cy[ci], sum[ci] = ccy, csum
				if !c.notrace {
					ts = st.Trace
				}
			}
		}
		equal := true
		for ci := 1; ci < len(corners); ci++ {
			if cy[ci] != cy[0] {
				return nil, fmt.Errorf("%s: virtual time diverged: corner %d ran %d cycles vs reference %d",
					w.name, ci, cy[ci], cy[0])
			}
			if sum[ci] != sum[0] {
				equal = false
			}
		}
		rep.Runs = append(rep.Runs, BenchPR8Run{
			Workload:           w.name,
			Processors:         w.processors,
			Workers:            w.workers,
			SerialNocacheNs:    ns[0],
			SerialCacheNs:      ns[1],
			SerialTraceNs:      ns[2],
			TraceSpeedupSerial: float64(ns[1]) / float64(ns[2]),
			TotalSpeedupSerial: float64(ns[0]) / float64(ns[2]),
			VirtualCycles:      uint64(cy[0]),
			ResultsEqual:       equal,
			TraceCompiled:      ts.Compiled,
			TraceFusedOps:      ts.FusedOps,
			TraceEntries:       ts.Entries,
			TraceInstrs:        ts.Instructions,
			TraceDeopts:        ts.Deopts,
			TraceExits:         ts.Exits,
		})
	}

	// The tentpole gate: fusion must pay ≥3x over the cached fast path on
	// the compute shapes, and the ratio is only meaningful if traces
	// actually ran.
	for _, r := range rep.Runs {
		if r.Workload != "e3-compute" && r.Workload != "reg-loop" {
			continue
		}
		if r.TraceEntries == 0 || r.TraceInstrs == 0 {
			return nil, fmt.Errorf("bench-pr8: %s: no trace ever entered (compiled %d) — speedup ratio is vacuous",
				r.Workload, r.TraceCompiled)
		}
		if r.TraceSpeedupSerial < 3 {
			return nil, fmt.Errorf("bench-pr8: %s: serial trace speedup %.2fx under the 3x gate "+
				"(cache %dns, trace %dns)", r.Workload, r.TraceSpeedupSerial, r.SerialCacheNs, r.SerialTraceNs)
		}
	}

	if err := writeReport(path, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// benchTraceAllocProbe pins a single hot register loop in compiled
// traces, lets it reach steady state, and counts host allocations over a
// long measured window. Returns (instructions executed in the window,
// mallocs observed in the window).
func benchTraceAllocProbe() (uint64, uint64, error) {
	sys, err := gdp.New(gdp.Config{Processors: 1})
	if err != nil {
		return 0, 0, err
	}
	// An endless register loop: everything after warm-up runs as one
	// compiled trace re-entered from its own back edge.
	dom, f := makeDomain(sys, []isa.Instr{
		isa.MovI(2, 3),
		isa.Add(0, 0, 2), // loop head
		isa.Sub(3, 0, 2),
		isa.Mul(4, 0, 2),
		isa.Mov(5, 4),
		isa.Add(0, 0, 5),
		isa.Br(1),
	})
	if f != nil {
		return 0, 0, f
	}
	if _, f := sys.Spawn(dom, gdp.SpawnSpec{}); f != nil {
		return 0, 0, f
	}
	// The loop never halts, so drive bounded quanta directly rather than
	// running to idle. Warm-up crosses the hotness threshold, compiles,
	// and enters the trace.
	step := func(quanta int) *obj.Fault {
		for i := 0; i < quanta; i++ {
			if _, f := sys.Step(5_000); f != nil {
				return f
			}
		}
		return nil
	}
	if f := step(20); f != nil {
		return 0, 0, f
	}
	if ts := sys.TraceStats(); ts.Entries == 0 {
		return 0, 0, fmt.Errorf("probe loop never entered a trace (compiled %d)", ts.Compiled)
	}

	prevGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prevGC)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	instrBefore := sys.TraceStats().Instructions

	if f := step(4_000); f != nil {
		return 0, 0, f
	}

	runtime.ReadMemStats(&after)
	instrs := sys.TraceStats().Instructions - instrBefore
	return instrs, after.Mallocs - before.Mallocs, nil
}
