package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/ledger"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Family C: the unit cost of each layer's public calls, taken on small
// probe worlds built for the purpose. A probe group builds its world and
// times one batch; the runner calls it several times (probeBatches by
// default) and keeps each metric's best value, for the same reason
// end-to-end host times keep the fastest repetition.
const probeBatches = 5

type probeGroup struct {
	name string // span name
	defs []metricDef
	run  func() ([]float64, error) // one batch; values parallel to defs
}

func ns(name string) metricDef   { return metricDef{name: name, unit: "ns", better: "lower"} }
func rate(name string) metricDef { return metricDef{name: name, unit: "events/s", better: "higher"} }

// nsPerOp times n calls of f.
func nsPerOp(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// must collects the first fault of a probe batch so the timed closures
// stay free of error plumbing (and so a nil *obj.Fault never becomes a
// non-nil error).
type must struct{ err error }

func (m *must) fault(f *obj.Fault) {
	if f != nil && m.err == nil {
		m.err = f
	}
}

func (m *must) error(err error) {
	if err != nil && m.err == nil {
		m.err = err
	}
}

// runProgram spawns one process executing prog on a one-processor system
// and runs it to completion, returning host ns per simulated instruction.
func runProgram(prog []isa.Instr, aargs [4]obj.AD, im *core.IMAX) (float64, error) {
	code, f := im.Domains.CreateCode(im.Heap, prog)
	if f != nil {
		return 0, f
	}
	dom, f := im.Domains.Create(im.Heap, code, []uint32{0})
	if f != nil {
		return 0, f
	}
	if _, f := im.Spawn(dom, gdp.SpawnSpec{AArgs: aargs}); f != nil {
		return 0, f
	}
	before := im.Stats().Instructions
	t0 := time.Now()
	_, f = im.Run(0)
	el := time.Since(t0)
	if f != nil {
		return 0, f
	}
	return float64(el.Nanoseconds()) / float64(im.Stats().Instructions-before), nil
}

// loopOf wraps body in a counted loop of n iterations.
func loopOf(n uint32, body ...isa.Instr) []isa.Instr {
	p := []isa.Instr{isa.MovI(4, n)}
	p = append(p, body...)
	return append(p, isa.AddI(4, 4, ^uint32(0)), isa.BrNZ(4, 1), isa.Halt())
}

// sendRecv times a send+receive pair on a port of capacity 64 kept at the
// given depth, which is what takeBest's scan cost depends on.
func sendRecv(d port.Discipline, depth int) (float64, error) {
	im, err := core.Boot(core.Config{})
	if err != nil {
		return 0, err
	}
	p, f := im.Ports.Create(im.Heap, 64, d)
	if f != nil {
		return 0, f
	}
	msg, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		return 0, f
	}
	var m must
	key := uint32(0)
	send := func() {
		key = key*1664525 + 1013904223
		_, _, f := im.Ports.Send(p, msg, key>>16, obj.NilAD)
		m.fault(f)
	}
	for i := 1; i < depth; i++ {
		send()
	}
	v := nsPerOp(20_000, func() {
		send()
		_, _, _, f := im.Ports.Receive(p, obj.NilAD)
		m.fault(f)
	})
	return v, m.err
}

var probeGroups = []probeGroup{
	{"probe:obj", []metricDef{ns("obj.resolve_ns"), ns("obj.loadad_ns"), ns("obj.storead_ns")}, func() ([]float64, error) {
		im, err := core.Boot(core.Config{})
		if err != nil {
			return nil, err
		}
		o, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64, AccessSlots: 4})
		if f != nil {
			return nil, f
		}
		leaf, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			return nil, f
		}
		var m must
		m.fault(im.Table.StoreAD(o, 0, leaf))
		const n = 200_000
		return []float64{
			nsPerOp(n, func() { _, f := im.Table.ReadDWord(o, 8); m.fault(f) }),
			nsPerOp(n, func() { _, f := im.Table.LoadAD(o, 0); m.fault(f) }),
			nsPerOp(n, func() { m.fault(im.Table.StoreAD(o, 1, leaf)) }),
		}, m.err
	}},
	{"probe:mem", []metricDef{ns("mem.alloc_free_ns"), ns("mem.window_ns")}, func() ([]float64, error) {
		mm := mem.New(4 << 20)
		var m must
		// Neighbours on both sides, so every free coalesces like a busy heap's.
		for i := 0; i < 64; i++ {
			_, err := mm.Alloc(96)
			m.error(err)
		}
		e, err := mm.Alloc(64)
		m.error(err)
		var sink byte
		v := []float64{
			nsPerOp(200_000, func() {
				x, err := mm.Alloc(64)
				m.error(err)
				m.error(mm.Free(x))
			}),
			nsPerOp(200_000, func() { sink += mm.Window(e)[0] }),
		}
		_ = sink
		return v, m.err
	}},
	{"probe:sro", []metricDef{ns("sro.create_reclaim_ns")}, func() ([]float64, error) {
		im, err := core.Boot(core.Config{})
		if err != nil {
			return nil, err
		}
		var m must
		v := nsPerOp(50_000, func() {
			a, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64})
			m.fault(f)
			m.fault(im.SROs.Reclaim(a.Index))
		})
		return []float64{v}, m.err
	}},
	{"probe:port", []metricDef{ns("port.sendrecv_ns.depth1"), ns("port.sendrecv_ns.depth48"),
		ns("port.sendrecv_prio_ns.depth48"), ns("port.park_unpark_ns")}, func() ([]float64, error) {
		d1, err := sendRecv(port.FIFO, 1)
		if err != nil {
			return nil, err
		}
		d48, err := sendRecv(port.FIFO, 48)
		if err != nil {
			return nil, err
		}
		p48, err := sendRecv(port.Priority, 48)
		if err != nil {
			return nil, err
		}
		im, err := core.Boot(core.Config{})
		if err != nil {
			return nil, err
		}
		p, f := im.Ports.Create(im.Heap, 64, port.FIFO)
		if f != nil {
			return nil, f
		}
		proc, f := im.Procs.Create(im.Heap, process.Spec{DispatchPort: im.Dispatch})
		if f != nil {
			return nil, f
		}
		msg, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			return nil, f
		}
		var m must
		park := nsPerOp(20_000, func() {
			_, blocked, _, f := im.Ports.Receive(p, proc) // empty port: the receiver parks
			m.fault(f)
			_, wake, f := im.Ports.Send(p, msg, 0, obj.NilAD) // hands it the message
			m.fault(f)
			if !blocked || wake == nil {
				m.error(fmt.Errorf("park/unpark probe: blocked=%v wake=%v", blocked, wake))
			}
		})
		return []float64{d1, d48, p48, park}, m.err
	}},
	{"probe:gdp", []metricDef{ns("gdp.step_idle_ns"), ns("gdp.instr_ns.alu"), ns("gdp.instr_ns.loadstore"),
		ns("gdp.domaincall_ns"), ns("gdp.spawn_ns")}, func() ([]float64, error) {
		idle, err := core.Boot(core.Config{Processors: 4})
		if err != nil {
			return nil, err
		}
		var m must
		stepIdle := nsPerOp(50_000, func() { _, f := idle.Step(2_000); m.fault(f) })

		im, err := core.Boot(core.Config{})
		if err != nil {
			return nil, err
		}
		alu, err := runProgram(loopOf(200_000,
			isa.Add(0, 0, 4), isa.Mul(1, 0, 4), isa.Sub(2, 1, 0), isa.Add(3, 2, 1),
			isa.Mul(0, 3, 4), isa.Sub(1, 0, 2), isa.Add(2, 1, 3), isa.Sub(3, 2, 0)), [4]obj.AD{}, im)
		if err != nil {
			return nil, err
		}
		cell, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
		if f != nil {
			return nil, f
		}
		ls, err := runProgram(loopOf(200_000,
			isa.Load(0, 1, 0), isa.Store(0, 1, 4), isa.Load(2, 1, 8), isa.Store(2, 1, 12),
			isa.Load(0, 1, 4), isa.Store(0, 1, 8), isa.Load(2, 1, 12), isa.Store(2, 1, 0)), [4]obj.AD{obj.NilAD, cell}, im)
		if err != nil {
			return nil, err
		}
		code, f := im.Domains.CreateCode(im.Heap, []isa.Instr{isa.Ret()})
		if f != nil {
			return nil, f
		}
		callee, f := im.Domains.Create(im.Heap, code, []uint32{0})
		if f != nil {
			return nil, f
		}
		// Four instructions per iteration: call, ret and the two of the loop.
		perInstr, err := runProgram(loopOf(20_000, isa.Call(0, 0)), [4]obj.AD{callee}, im)
		if err != nil {
			return nil, err
		}
		halt, f := im.Domains.CreateCode(im.Heap, []isa.Instr{isa.Halt()})
		if f != nil {
			return nil, f
		}
		haltDom, f := im.Domains.Create(im.Heap, halt, []uint32{0})
		if f != nil {
			return nil, f
		}
		spawn := nsPerOp(500, func() { _, f := im.Spawn(haltDom, gdp.SpawnSpec{}); m.fault(f) })
		return []float64{stepIdle, alu, ls, perInstr * 4, spawn}, m.err
	}},
	{"probe:isa", []metricDef{ns("isa.decode_ns")}, func() ([]float64, error) {
		enc := isa.EncodeProgram([]isa.Instr{isa.Load(2, 1, 8), isa.AddI(2, 2, 1), isa.Store(2, 1, 8), isa.BrNZ(3, 1)})
		var m must
		i := 0
		v := nsPerOp(400_000, func() {
			_, err := isa.Decode(enc[i*isa.InstrSize : (i+1)*isa.InstrSize])
			m.error(err)
			i = (i + 1) & 3
		})
		return []float64{v}, m.err
	}},
	{"probe:gc", []metricDef{ns("gc.collect_ns_per_obj")}, func() ([]float64, error) {
		im, err := core.Boot(core.Config{})
		if err != nil {
			return nil, err
		}
		const n = 20_000
		for i := 0; i < n; i++ { // unreachable at once: all of it is the sweep's
			if _, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64}); f != nil {
				return nil, f
			}
		}
		t0 := time.Now()
		var m must
		_, f := im.Collect()
		m.fault(f)
		return []float64{float64(time.Since(t0).Nanoseconds()) / n}, m.err
	}},
	{"probe:mm", []metricDef{ns("mm.swap_roundtrip_ns"), ns("mm.compact_ns_per_move")}, func() ([]float64, error) {
		im, err := core.Boot(core.Config{Swapping: true, MemoryBytes: 4 << 20})
		if err != nil {
			return nil, err
		}
		var objs []obj.AD
		for i := 0; i < 400; i++ {
			a, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 2048})
			if f != nil {
				return nil, f
			}
			objs = append(objs, a)
		}
		var m must
		swap := nsPerOp(2_000, func() {
			idx, ok, f := im.Swapper.EvictVictim()
			m.fault(f)
			if ok {
				m.fault(im.Swapper.EnsureResident(idx))
			}
		})
		for i := 0; i < len(objs); i += 2 { // holes for the compactor to close
			m.fault(im.SROs.Reclaim(objs[i].Index))
		}
		t0 := time.Now()
		moved, _, f := im.Swapper.Compact()
		m.fault(f)
		return []float64{swap, ratio(float64(time.Since(t0).Nanoseconds()), float64(moved))}, m.err
	}},
	{"probe:filing", []metricDef{ns("filing.passivate_ns"), ns("filing.activate_ns"),
		{name: "filing.image_bytes", unit: "B", better: "lower"}}, func() ([]float64, error) {
		im, err := core.Boot(core.Config{Filing: true})
		if err != nil {
			return nil, err
		}
		// The shard workload's unit of transfer: one 64-byte session object.
		root, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64})
		if f != nil {
			return nil, f
		}
		var m must
		const n = 5_000
		toks := make([]uint64, 0, n)
		pass := nsPerOp(n, func() {
			tok, err := im.Files.Passivate(root)
			m.error(err)
			toks = append(toks, tok)
		})
		if m.err != nil {
			return nil, m.err
		}
		img, err := im.Files.Export(toks[0])
		m.error(err)
		i := 0
		act := nsPerOp(n, func() {
			_, err := im.Files.Activate(toks[i], im.Heap)
			m.error(err)
			i++
		})
		return []float64{pass, act, float64(len(img))}, m.err
	}},
	{"probe:cluster", []metricDef{ns("cluster.ship_materialize_ns")}, func() ([]float64, error) {
		cl, err := cluster.New(cluster.Config{Nodes: 2, Node: core.Config{Processors: 1}})
		if err != nil {
			return nil, err
		}
		im := cl.Nodes[0].IM
		root, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64})
		if f != nil {
			return nil, f
		}
		var m must
		v := nsPerOp(3_000, func() {
			_, err := cl.Ship(0, 1, root, cluster.MsgRequest, 0)
			m.error(err)
			ds, err := cl.Deliver(1)
			m.error(err)
			for _, d := range ds {
				_, created, err := cl.Materialize(d)
				m.error(err)
				m.error(cl.ReclaimGraph(1, created))
			}
		})
		return []float64{v}, m.err
	}},
	{"probe:trace+ledger", []metricDef{ns("trace.emit_ns"), ns("trace.emit_sink_ns"),
		rate("ledger.seal_events_per_s"), rate("ledger.verify_events_per_s")}, func() ([]float64, error) {
		const n = 100_000
		plain, sunk := trace.New(0), trace.New(0)
		sink := ledger.NewSink(ledger.Config{})
		sunk.SetSink(sink)
		i := uint32(0)
		emit := func(l *trace.Log) func() {
			return func() { i++; l.Emit(trace.EvSend, i, i>>3, uint64(i)) }
		}
		emitNs, sinkNs := nsPerOp(n, emit(plain)), nsPerOp(n, emit(sunk))
		sink.Close()

		events := make([]trace.Event, n)
		for i := range events {
			events[i] = trace.Event{Seq: uint64(i + 1), Kind: trace.EvSend, Obj: uint32(i), Arg: uint32(i >> 3), Aux: uint64(i)}
		}
		t0 := time.Now()
		sealed := ledger.Seal(events, ledger.Config{})
		sealS := time.Since(t0).Seconds()
		t0 = time.Now()
		_, err := ledger.Verify(sealed)
		verifyS := time.Since(t0).Seconds()
		return []float64{emitNs, sinkNs, n / sealS, n / verifyS}, err
	}},
	{"probe:vtime", []metricDef{ns("vtime.hist_observe_ns")}, func() ([]float64, error) {
		var h vtime.Hist
		x := uint64(1)
		v := nsPerOp(1_000_000, func() {
			x = x*6364136223846793005 + 1442695040888963407
			h.Observe(vtime.Cycles(x >> 44))
		})
		if h.N() != 1_000_000 {
			return nil, fmt.Errorf("hist probe: %d observations", h.N())
		}
		return []float64{v}, nil
	}},
	{"probe:scenario", []metricDef{ns("scenario.new_ns_per_session")}, func() ([]float64, error) {
		const n = 20_000
		t0 := time.Now()
		_, err := scenario.New(serveConfig(1, n, 700))
		return []float64{float64(time.Since(t0).Nanoseconds()) / n}, err
	}},
}

// probes flattens the groups' metric definitions, in print order.
var probes = func() []metricDef {
	var out []metricDef
	for _, g := range probeGroups {
		out = append(out, g.defs...)
	}
	return out
}()

// runProbes runs every probe group batches times and keeps each metric's
// best value.
func runProbes(batches int, sp *spans) (map[string]float64, error) {
	best := map[string]float64{}
	for _, g := range probeGroups {
		for b := 0; b < batches; b++ {
			end := sp.begin(g.name)
			vals, err := g.run()
			end()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", g.name, err)
			}
			for i, d := range g.defs {
				old, seen := best[d.name]
				if !seen || (d.better == "lower") == (vals[i] < old) {
					best[d.name] = vals[i]
				}
			}
		}
	}
	return best, nil
}
