package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/ledger"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// outcome is what one finished repetition says about the simulated
// machine. Every field is a pure function of (workload, seed, scale): the
// runner compares fingerprints across repetitions and fails the workload
// on any difference.
type outcome struct {
	ops    uint64 // completed units of work
	issued uint64 // units attempted
	failed uint64 // units that did not complete correctly

	instructions uint64
	cycles       uint64 // simulated time to finish
	processors   int    // simulated processors, summed over nodes

	p50, p99, p999 uint64 // latency in cycles (see README for closed loops)

	fingerprint string
	layer       map[string]float64 // raw family-B counts not in the trace
}

// instance is one freshly built world of a workload. run is the timed
// region; check verifies outputs and may disturb the world, so it runs
// after every measurement of the repetition is taken.
type instance interface {
	run(sp *spans) error
	outcome() outcome
	check() error
	traces() []*trace.Log
}

type workloadDef struct {
	name  string
	op    string
	why   string
	build func(seed int64, scale float64, traced bool) (instance, error)
}

// scaled shrinks a population for -scale, never below a floor that keeps
// every mechanism of the workload in play.
func scaled(n int, scale float64, floor int) int {
	v := int(float64(n) * scale)
	if v < floor {
		return floor
	}
	return v
}

// Default populations. They are sized so that one repetition (set-up,
// forced GC, run, forced GC) takes about a second on a 2-core host, which
// lets a ten-second run hold seven or more repetitions.
const (
	serveSessions  = 100_000
	auditSessions  = 40_000 // the sinks make a request about four times dearer
	swapSessions   = 20_000
	shardSessions  = 60_000
	ladderSessions = 50_000
	computeIters   = 300_000
	churnAllocs    = 50_000
)

var workloads = []workloadDef{
	{
		name: "serve", op: "completed request",
		why: "million-user request path at 70% of the knee: port send/receive over obj and mem, no allocation, swap or filing per request",
		build: func(seed int64, scale float64, traced bool) (instance, error) {
			return newServe(serveConfig(seed, scaled(serveSessions, scale, 500), 700), traced, false)
		},
	},
	{
		name: "serve-audit", op: "completed request",
		why: "the serve request path with the trace ring and the audit ledger on: a sink change moves this and must not move serve",
		build: func(seed int64, scale float64, traced bool) (instance, error) {
			return newServe(serveConfig(seed, scaled(auditSessions, scale, 500), 700), true, true)
		},
	},
	{
		name: "compute", op: "loop iteration",
		why: "closed loop of guarded loads, ALU ops and stores on private objects: gdp decode, exec cache and trace path only; the control for every IPC claim",
		build: func(seed int64, scale float64, traced bool) (instance, error) {
			return newCompute(seed, uint32(scaled(computeIters, scale, 2_000)), traced)
		},
	},
	{
		name: "churn", op: "object allocated",
		why: "closed loop of allocate-and-drop under the on-the-fly collector: sro create, descriptor create/destroy, gc mark/sweep, mem alloc/free",
		build: func(seed int64, scale float64, traced bool) (instance, error) {
			return newChurn(seed, uint32(scaled(churnAllocs, scale, 500)), traced)
		},
	},
	{
		name: "swap", op: "completed request",
		why: "2 KB sessions in 2 MB of memory: mm eviction, segment-fault service and compaction on the request path, at a thirty-fifth of the serve arrival rate",
		build: func(seed int64, scale float64, traced bool) (instance, error) {
			cfg, err := scenario.Preset("mempressure", scaled(swapSessions, scale, 2_000), seed)
			if err != nil {
				return nil, err
			}
			// At the issue's MeanGap of 12 000 the queue sits at its knee and
			// the tail percentiles move 20-45 % from seed to seed; at 24 000
			// every request still faults its session in, and they move 4-9 %.
			cfg.MeanGap = 24_000
			cfg.DrainBudget = 200_000_000
			return newServe(cfg, traced, false)
		},
	},
	{
		name: "shard", op: "completed request",
		why: "two share-nothing kernels in lockstep with 15% of requests migrating: filing passivate/activate, the cluster wire and the sequential node loop",
		build: func(seed int64, scale float64, traced bool) (instance, error) {
			return newShard(seed, scaled(shardSessions, scale, 500), traced)
		},
	},
}

// ---- serve, serve-audit, swap: the single-node scenario engine ----

func serveConfig(seed int64, sessions int, gap vtime.Cycles) scenario.Config {
	cfg, err := scenario.Preset("baseline", sessions, seed)
	if err != nil {
		panic(err) // "baseline" is a shipped preset
	}
	cfg.MeanGap = gap
	cfg.Processors = 4
	return cfg
}

type serveInst struct {
	eng *scenario.Engine
	res *scenario.Result
}

func newServe(cfg scenario.Config, traced, ledgered bool) (instance, error) {
	cfg.Trace = traced
	cfg.Ledger = ledgered
	eng, err := scenario.New(cfg)
	if err != nil {
		return nil, err
	}
	return &serveInst{eng: eng}, nil
}

func (s *serveInst) run(sp *spans) error {
	defer sp.begin("scenario.Engine.Run")()
	res, err := s.eng.Run()
	s.res = res
	return err
}

func (s *serveInst) traces() []*trace.Log {
	if s.eng.IM.TraceLog == nil {
		return nil
	}
	return []*trace.Log{s.eng.IM.TraceLog}
}

func (s *serveInst) outcome() outcome {
	r := s.res
	return outcome{
		ops:          r.Completed,
		issued:       r.Issued + r.Unissued,
		failed:       r.Censored + r.Unissued + r.Alien,
		instructions: r.Instructions,
		cycles:       r.VirtualCycles,
		processors:   r.Processors,
		p50:          r.Overall.P50Cycles,
		p99:          r.Overall.P99Cycles,
		p999:         r.Overall.P999Cycles,
		fingerprint:  r.Fingerprint(),
		layer: map[string]float64{
			"dispatches": float64(r.Dispatches), "preemptions": float64(r.Preemptions), "faults": float64(r.FaultsSent),
			"deferred": float64(r.Deferred), "censored": float64(r.Censored),
			"evictions": float64(r.Evictions), "compact_moves": float64(r.CompactMoves),
			"ledger_events": float64(r.LedgerEvents), "ledger_dropped": float64(r.LedgerDropped),
		},
	}
}

// ledgerBytes is the size of the sealed ledger. Sink.Bytes copies the
// whole ledger, so only traced repetitions ask (see runRep).
func (s *serveInst) ledgerBytes() int {
	if lg := s.eng.IM.Ledger; lg != nil {
		return len(lg.Bytes())
	}
	return 0
}

// check verifies the byte-level service witness (every touched dword of a
// session object equals the session's completed count, and the counts sum
// to the requests served) and, with a ledger, that the sealed bytes verify
// and replay to the trace ring's per-kind counters.
func (s *serveInst) check() error {
	eng := s.eng
	var served uint64
	for i := range eng.Sessions {
		ses := &eng.Sessions[i]
		if sw := eng.IM.Swapper; sw != nil {
			if f := sw.EnsureResident(ses.Obj.Index); f != nil {
				return fmt.Errorf("session %d unrestorable: %v", i, f)
			}
		}
		for d := uint32(0); d < eng.Classes[ses.Class].Spec.Touches; d++ {
			v, f := eng.IM.Table.ReadDWord(ses.Obj, d*4)
			if f != nil {
				return fmt.Errorf("session %d dword %d unreadable: %v", i, d, f)
			}
			if v != uint32(ses.Completed) {
				return fmt.Errorf("session %d dword %d = %d, want %d completed requests", i, d, v, ses.Completed)
			}
		}
		served += uint64(ses.Completed)
	}
	if served != s.res.Completed {
		return fmt.Errorf("session witnesses sum to %d, result says %d completed", served, s.res.Completed)
	}
	lg := eng.IM.Ledger
	if lg == nil {
		return nil
	}
	rep, err := ledger.Verify(lg.Bytes())
	if err != nil {
		return fmt.Errorf("ledger verify: %w", err)
	}
	_, counts := eng.IM.TraceLog.Snapshot()
	for k, n := range counts {
		var got uint64
		if k < len(rep.Counts) {
			got = rep.Counts[k]
		}
		if k < len(rep.Dropped) {
			got += rep.Dropped[k]
		}
		if got != n {
			return fmt.Errorf("ledger replays %d %v events, trace ring counted %d", got, trace.Kind(k), n)
		}
	}
	return nil
}

// ---- shard: two kernels in lockstep ----

type shardInst struct {
	eng  *scenario.ShardEngine
	res  *scenario.ShardResult
	logs []*trace.Log
}

func newShard(seed int64, sessions int, traced bool) (instance, error) {
	cfg := scenario.ShardPreset(2, sessions, seed)
	cfg.MeanGap = 600
	cfg.MigratePermille = 150
	eng, err := scenario.NewShard(cfg)
	if err != nil {
		return nil, err
	}
	s := &shardInst{eng: eng}
	if traced {
		// ShardConfig has no trace switch; the logs attach to the built
		// nodes, so they see the run and not the set-up.
		for _, n := range eng.Cluster.Nodes {
			l := trace.New(0)
			n.IM.SetTracer(l)
			s.logs = append(s.logs, l)
		}
	}
	return s, nil
}

func (s *shardInst) run(sp *spans) error {
	defer sp.begin("scenario.ShardEngine.Run")()
	res, err := s.eng.Run()
	s.res = res
	return err
}

func (s *shardInst) traces() []*trace.Log { return s.logs }

func (s *shardInst) outcome() outcome {
	r := s.res
	o := outcome{
		ops:         r.Completed,
		issued:      r.Issued + r.Unissued,
		failed:      r.Censored + r.Unissued + r.FailedActivations,
		cycles:      r.VirtualCycles,
		processors:  r.Nodes * r.Processors,
		p50:         r.Overall.P50Cycles,
		p99:         r.Overall.P99Cycles,
		p999:        r.Overall.P999Cycles,
		fingerprint: r.Fingerprint(),
		layer: map[string]float64{
			"deferred": float64(r.Deferred), "censored": float64(r.Censored),
			"wire_msgs": float64(r.WireMsgs), "wire_bytes": float64(r.WireBytes),
			"migrated": float64(r.MigratedIssued), "failed_activations": float64(r.FailedActivations),
		},
	}
	for _, n := range s.eng.Cluster.Nodes {
		st := n.IM.Stats()
		o.instructions += st.Instructions
		o.layer["dispatches"] += float64(st.Dispatches)
		o.layer["preemptions"] += float64(st.Preemptions)
		o.layer["faults"] += float64(st.FaultsSent)
	}
	for _, pn := range r.PerNode {
		o.layer["filed_objects"] += float64(pn.FiledObjects)
		o.layer["activated_objects"] += float64(pn.ActivatedObjects)
	}
	return o
}

func (s *shardInst) check() error {
	if vs := s.eng.CheckTransfers(); len(vs) > 0 {
		return fmt.Errorf("transfer audit: %d violations, first: %v", len(vs), vs[0])
	}
	if n := s.res.FailedActivations; n != 0 {
		return fmt.Errorf("%d failed activations", n)
	}
	return nil
}

// ---- compute and churn: closed loops stepped to completion ----

// stepBatch is how many 5000-cycle quanta run between looks at the
// workers; it bounds both the polling overhead inside the timed region
// and the resolution of a worker's completion time.
const (
	stepQuantum = 5_000
	stepBatch   = 16
	stepBudget  = 40_000_000_000 // cycles; a wedged closed loop fails instead of hanging
)

// closedLoop is a booted system plus the worker processes to wait for.
type closedLoop struct {
	im      *core.IMAX
	workers []obj.AD
	doneAt  []vtime.Cycles // completion instant per worker, 0 while running
	start   gdp.Stats
}

// anchor makes the workers reachable from the pinned directory, so the
// collector daemon cannot reclaim a terminated process before the runner
// has read its state.
func (c *closedLoop) anchor(extra ...obj.AD) error {
	ads := append(append([]obj.AD{}, c.workers...), extra...)
	a, f := c.im.MM.Allocate(c.im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: uint32(len(ads))})
	if f != nil {
		return f
	}
	if f := c.im.Publish(1, a); f != nil {
		return f
	}
	for i, ad := range ads {
		if f := c.im.Table.StoreADSystem(a, uint32(i), ad); f != nil {
			return f
		}
	}
	c.doneAt = make([]vtime.Cycles, len(c.workers))
	c.start = c.im.Stats()
	return nil
}

func (c *closedLoop) run(sp *spans, name string) error {
	for {
		end := sp.begin(name)
		for i := 0; i < stepBatch; i++ {
			if _, f := c.im.Step(stepQuantum); f != nil {
				end()
				return f
			}
		}
		end()
		now, running := c.im.Now(), 0
		for i, p := range c.workers {
			if c.doneAt[i] != 0 {
				continue
			}
			st, f := c.im.Procs.StateOf(p)
			if f != nil {
				return f
			}
			if st == process.StateTerminated {
				c.doneAt[i] = now
			} else {
				running++
			}
		}
		if running == 0 {
			return nil
		}
		if now > stepBudget {
			return fmt.Errorf("%d workers still running after %d cycles", running, now)
		}
	}
}

// latencies reports the workers' completion times as nearest-rank
// percentiles: for a closed loop the "request" is a worker's whole job.
func (c *closedLoop) latencies() (p50, p99, p999 uint64) {
	d := append([]vtime.Cycles(nil), c.doneAt...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	rank := func(num, den int) uint64 { return uint64(d[(len(d)*num+den-1)/den-1]) }
	return rank(50, 100), rank(99, 100), rank(999, 1000)
}

func (c *closedLoop) base(perWorkerOps uint64) outcome {
	st := c.im.Stats()
	o := outcome{
		ops:          perWorkerOps * uint64(len(c.workers)),
		issued:       perWorkerOps * uint64(len(c.workers)),
		instructions: st.Instructions - c.start.Instructions,
		cycles:       uint64(c.im.Now()),
		processors:   len(c.im.CPUs),
		layer: map[string]float64{
			"dispatches":  float64(st.Dispatches - c.start.Dispatches),
			"preemptions": float64(st.Preemptions - c.start.Preemptions),
			"faults":      float64(st.FaultsSent - c.start.FaultsSent),
		},
	}
	o.p50, o.p99, o.p999 = c.latencies()
	return o
}

func (c *closedLoop) traces() []*trace.Log {
	if c.im.TraceLog == nil {
		return nil
	}
	return []*trace.Log{c.im.TraceLog}
}

// compute: 24 workers on 6 processors, each iterating
// x ← (x + a)·m − s over a private 16-byte object {x, a, m, s}.
const (
	computeWorkers    = 24
	computeProcessors = 6
)

type computeInst struct {
	closedLoop
	iters  uint32
	cells  []obj.AD
	params [][4]uint32
}

func newCompute(seed int64, iters uint32, traced bool) (instance, error) {
	im, err := core.Boot(core.Config{Processors: computeProcessors, Trace: traced})
	if err != nil {
		return nil, err
	}
	c := &computeInst{closedLoop: closedLoop{im: im}, iters: iters}
	code, f := im.Domains.CreateCode(im.Heap, []isa.Instr{
		isa.Load(0, 1, 0),  // r0 = x
		isa.Load(5, 1, 4),  // r5 = a
		isa.Load(6, 1, 8),  // r6 = m
		isa.Load(7, 1, 12), // r7 = s
		isa.MovI(4, iters),
		isa.Load(0, 1, 0), // loop:
		isa.Add(0, 0, 5),
		isa.Mul(0, 0, 6),
		isa.Sub(0, 0, 7),
		isa.Store(0, 1, 0),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 5),
		isa.Halt(),
	})
	if f != nil {
		return nil, f
	}
	dom, f := im.Domains.Create(im.Heap, code, []uint32{0})
	if f != nil {
		return nil, f
	}
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < computeWorkers; w++ {
		cell, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
		if f != nil {
			return nil, f
		}
		p := [4]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32() | 1, rng.Uint32()}
		for i, v := range p {
			if f := im.Table.WriteDWord(cell, uint32(i*4), v); f != nil {
				return nil, f
			}
		}
		proc, f := im.Spawn(dom, gdp.SpawnSpec{TimeSlice: 20_000, AArgs: [4]obj.AD{obj.NilAD, cell}})
		if f != nil {
			return nil, f
		}
		c.workers = append(c.workers, proc)
		c.cells = append(c.cells, cell)
		c.params = append(c.params, p)
	}
	if err := c.anchor(c.cells...); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *computeInst) run(sp *spans) error { return c.closedLoop.run(sp, "gdp.System.Step") }

// affinePow returns the map x ↦ m·x + k applied n times, as (m', k'), by
// squaring — the closed form the simulated results are checked against.
func affinePow(m, k uint32, n uint32) (uint32, uint32) {
	rm, rk := uint32(1), uint32(0)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			rm, rk = rm*m, rk*m+k
		}
		m, k = m*m, k*m+k
	}
	return rm, rk
}

func (c *computeInst) wrong() (int, error) {
	bad := 0
	for w, cell := range c.cells {
		p := c.params[w]
		pm, pk := affinePow(p[2], p[1]*p[2]-p[3], c.iters)
		got, f := c.im.Table.ReadDWord(cell, 0)
		if f != nil {
			return 0, f
		}
		if got != pm*p[0]+pk {
			bad++
		}
	}
	return bad, nil
}

func (c *computeInst) outcome() outcome {
	o := c.base(uint64(c.iters))
	bad, err := c.wrong()
	if err != nil {
		bad = len(c.workers)
	}
	o.failed = uint64(bad) * uint64(c.iters)
	o.fingerprint = fmt.Sprintf("compute cycles=%d instr=%d done=%v bad=%d", o.cycles, o.instructions, c.doneAt, bad)
	return o
}

func (c *computeInst) check() error {
	bad, err := c.wrong()
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workers disagree with the closed form", bad, len(c.workers))
	}
	return nil
}

// churn: 8 workers on 4 processors allocate and drop objects while the
// collector daemon reclaims them.
const churnWorkers = 8

type churnInst struct {
	closedLoop
	allocs               uint32
	created0, destroyed0 uint64
	live0                int
}

func newChurn(seed int64, allocs uint32, traced bool) (instance, error) {
	im, err := core.Boot(core.Config{
		Processors: 4, MemoryBytes: 64 << 20,
		GC: true, GCWork: 64, GCInterval: 20_000,
		Trace: traced,
	})
	if err != nil {
		return nil, err
	}
	c := &churnInst{closedLoop: closedLoop{im: im}, allocs: allocs}
	// The seed picks each worker's object size around the 64-byte mean,
	// so free-list shapes differ between seeds.
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < churnWorkers; w++ {
		size := uint32(48 + 16*rng.Intn(3))
		h, f := workload.Churn(im.System, 1, allocs, size, 2_000)
		if f != nil {
			return nil, f
		}
		c.workers = append(c.workers, h.Procs...)
	}
	if err := c.anchor(); err != nil {
		return nil, err
	}
	c.created0, c.destroyed0, _, _ = im.Table.Stats()
	c.live0 = im.Table.Live()
	return c, nil
}

func (c *churnInst) run(sp *spans) error { return c.closedLoop.run(sp, "gdp.System.Step") }

func (c *churnInst) outcome() outcome {
	o := c.base(uint64(c.allocs))
	gs := c.im.Collector.Stats()
	created, destroyed, _, _ := c.im.Table.Stats()
	o.layer["gc_cycles"] = float64(gs.Cycles)
	if c.check() != nil {
		o.failed = o.ops
	}
	o.fingerprint = fmt.Sprintf("churn cycles=%d instr=%d done=%v created=%d destroyed=%d reclaimed=%d marked=%d live=%d",
		o.cycles, o.instructions, c.doneAt, created-c.created0, destroyed-c.destroyed0, gs.Reclaimed, gs.Marked, c.im.Table.Live())
	return o
}

// check balances the object books over the run: everything created was
// either reclaimed by the collector or is still live, and the workers
// created at least what they were asked to.
func (c *churnInst) check() error {
	created, destroyed, _, _ := c.im.Table.Stats()
	created -= c.created0
	destroyed -= c.destroyed0
	reclaimed := c.im.Collector.Stats().Reclaimed
	live := int64(c.im.Table.Live()) - int64(c.live0)
	if int64(created) != int64(reclaimed)+live {
		return fmt.Errorf("created %d != reclaimed %d + live %d (destroyed %d)", created, reclaimed, live, destroyed)
	}
	if want := uint64(c.allocs) * churnWorkers; created < want {
		return fmt.Errorf("created %d objects, workers were to allocate %d", created, want)
	}
	return nil
}
