package main

import "repro/internal/trace"

// metricDef names one metric. The names are fixed: later issues cite them,
// BENCHMARK.json declares them and bench_test.go holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the machine would see, defined on
// every workload and never zero; endToEndOf computes them. The bounds come
// from the spread (interquartile range over median) that ten runs with ten
// seeds showed on the builder's host, since the driver measures steadiness
// across seeds: three times the spread where 25 %, the most a bound may be,
// allows it (README.md has the numbers). For one seed the virtual-time
// metrics repeat exactly.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"host_ops_per_s", "ops/s", "higher", 0.25},
	{"host_mips", "Minstr/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"virt_cycles", "cycles", "lower", 0.05},
	{"virt_ops_per_s", "ops/s", "higher", 0.05},
	{"virt_ipc", "instr/cycle", "higher", 0.08},
	{"virt_p50_cycles", "cycles", "lower", 0.10},
	{"virt_p99_cycles", "cycles", "lower", 0.20},
	{"virt_p999_cycles", "cycles", "lower", 0.25},
}

// reportOnly are printed with the per-layer metrics and written to
// results.json. host.ref_kernel_ms is the best reference-kernel time of the
// invocation, which is what host times were scaled by (ref.go). The other
// two are end-to-end metrics of the issue that the driver's contract cannot
// carry as bounded metrics: fail_ratio is 0 on a healthy run (a bounded
// metric may never be 0; the contract's own failed and attempted keys carry
// it instead) and virt_slo_rps exists on serve only and moves in whole
// ladder rungs.
var reportOnly = []metricDef{
	{name: "host.ref_kernel_ms", unit: "ms", better: "lower"},
	{name: "fail_ratio", unit: "ratio", better: "lower"},
	{name: "virt_slo_rps", unit: "1/s", better: "higher"},
}

// countMetric is a family-B metric: something the traced repetition
// counted, divided by ops (or by another count).
type countMetric struct {
	metricDef
	value func(c *counts) float64
}

// counts is what a traced repetition counted: trace events by kind over
// the run, the outcome, and the traced and untraced run times.
type counts struct {
	ev       []uint64
	out      outcome
	tracedS  float64
	untraced float64
}

func (c *counts) perOp(n float64) float64     { return ratio(n, float64(c.out.ops)) }
func (c *counts) kind(k trace.Kind) float64   { return float64(c.ev[k]) }
func (c *counts) raw(name string) float64     { return c.out.layer[name] }
func (c *counts) perIssued(n float64) float64 { return ratio(n, float64(c.out.issued)) }

func perOpKind(name string, k trace.Kind) countMetric {
	return countMetric{metricDef{name: name, unit: "count", better: "lower"},
		func(c *counts) float64 { return c.perOp(c.kind(k)) }}
}

func perOpRaw(name, key string) countMetric {
	return countMetric{metricDef{name: name, unit: "count", better: "lower"},
		func(c *counts) float64 { return c.perOp(c.raw(key)) }}
}

func rawCount(name, key string) countMetric {
	return countMetric{metricDef{name: name, unit: "count", better: "lower"},
		func(c *counts) float64 { return c.raw(key) }}
}

var countMetrics = []countMetric{
	{metricDef{name: "gdp.instr_per_op", unit: "count", better: "lower"},
		func(c *counts) float64 { return c.perOp(float64(c.out.instructions)) }},
	perOpRaw("gdp.dispatch_per_op", "dispatches"),
	perOpRaw("gdp.preempt_per_op", "preemptions"),
	perOpRaw("gdp.fault_per_op", "faults"),
	perOpKind("port.send_per_op", trace.EvSend),
	perOpKind("port.recv_per_op", trace.EvRecv),
	perOpKind("port.park_per_op", trace.EvPark),
	perOpKind("port.unpark_per_op", trace.EvUnpark),
	perOpKind("obj.create_per_op", trace.EvObjCreate),
	perOpKind("obj.destroy_per_op", trace.EvObjDestroy),
	perOpKind("obj.adstore_per_op", trace.EvADStore),
	perOpKind("obj.gray_per_op", trace.EvGray),
	perOpKind("gc.mark_per_op", trace.EvGCMark),
	perOpKind("gc.reclaim_per_op", trace.EvGCReclaim),
	{metricDef{name: "gc.phases", unit: "count", better: "lower"},
		func(c *counts) float64 { return c.kind(trace.EvGCPhase) }},
	perOpKind("mm.swapout_per_op", trace.EvSwapOut),
	perOpKind("mm.swapin_per_op", trace.EvSwapIn),
	rawCount("mm.evictions", "evictions"),
	rawCount("mm.compact_moves", "compact_moves"),
	{metricDef{name: "scenario.deferred_ratio", unit: "ratio", better: "lower"},
		func(c *counts) float64 { return c.perIssued(c.raw("deferred")) }},
	{metricDef{name: "scenario.censored_ratio", unit: "ratio", better: "lower"},
		func(c *counts) float64 { return c.perIssued(c.raw("censored")) }},
	perOpRaw("cluster.wire_msgs_per_op", "wire_msgs"),
	{metricDef{name: "cluster.wire_bytes_per_op", unit: "B", better: "lower"},
		func(c *counts) float64 { return c.perOp(c.raw("wire_bytes")) }},
	{metricDef{name: "cluster.migrated_ratio", unit: "ratio", better: "lower"},
		func(c *counts) float64 { return c.perIssued(c.raw("migrated")) }},
	perOpRaw("filing.filed_objects_per_op", "filed_objects"),
	perOpRaw("filing.activated_objects_per_op", "activated_objects"),
	rawCount("filing.failed_activations", "failed_activations"),
	perOpRaw("ledger.events_per_op", "ledger_events"),
	{metricDef{name: "ledger.bytes_per_event", unit: "B", better: "lower"},
		func(c *counts) float64 { return ratio(c.raw("ledger_bytes"), c.raw("ledger_events")) }},
	{metricDef{name: "ledger.dropped_ratio", unit: "ratio", better: "lower"},
		func(c *counts) float64 {
			return ratio(c.raw("ledger_dropped"), c.raw("ledger_events")+c.raw("ledger_dropped"))
		}},
	{metricDef{name: "trace.events_per_op", unit: "count", better: "lower"},
		func(c *counts) float64 {
			var n uint64
			for _, v := range c.ev {
				n += v
			}
			return c.perOp(float64(n))
		}},
	{metricDef{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
		func(c *counts) float64 { return ratio(c.tracedS, c.untraced) }},
}

// perLayer lists every per-layer metric in the order it is printed:
// family A (host shares from the profile), family B (counts per op),
// family C (unit costs from the probes), then the report-only metrics.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range shareLayers {
		out = append(out, metricDef{name: "cpu_share." + l, unit: "ratio", better: "lower"})
	}
	for _, l := range inclLayers {
		out = append(out, metricDef{name: "cpu_incl." + l, unit: "ratio", better: "lower"})
	}
	for _, c := range countMetrics {
		out = append(out, c.metricDef)
	}
	out = append(out, probes...)
	return append(out, reportOnly...)
}
