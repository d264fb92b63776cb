// Package workload provides parameterised synthetic workload generators
// for the experiment harness and benchmarks: compute batches, allocation
// churn, port pipelines and fork/join trees, each returning the process
// capabilities to watch. The generators encode, in one place, the
// workload shapes the paper's claims are evaluated against (independent
// compute for §3 scaling, allocation churn for §5/§8 memory behaviour,
// port meshes for §4 communication).
package workload

import (
	"fmt"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
)

// Handle tracks a spawned workload: the processes to wait for and any
// result objects to read.
type Handle struct {
	Procs   []obj.AD
	Results []obj.AD
}

// Done reports whether every process in the workload has terminated.
func (h *Handle) Done(sys *gdp.System) bool {
	for _, p := range h.Procs {
		st, f := sys.Procs.StateOf(p)
		if f != nil || st != process.StateTerminated {
			return false
		}
	}
	return true
}

// Domain builds a single-entry domain over prog on the system heap.
func Domain(sys *gdp.System, prog []isa.Instr) (obj.AD, *obj.Fault) {
	var l obj.Latch
	code := l.AD(sys.Domains.CreateCode(sys.Heap, prog))
	dom := l.AD(sys.Domains.Create(sys.Heap, code, []uint32{0}))
	return dom, l.Fault()
}

// fleet spawns n processes of one program under one spec. A constructor
// here creates straight through and checks once: the latch keeps the first
// refusal, and a step handed a refused create's NilAD refuses in turn.
func fleet(sys *gdp.System, n int, prog []isa.Instr, spec gdp.SpawnSpec) (*Handle, *obj.Fault) {
	var l obj.Latch
	dom := l.AD(Domain(sys, prog))
	h := &Handle{}
	for i := 0; i < n; i++ {
		h.Procs = append(h.Procs, l.AD(sys.Spawn(dom, spec)))
	}
	if f := l.Fault(); f != nil {
		return nil, f
	}
	return h, nil
}

// Compute spawns n independent compute-bound processes, each spinning for
// iters iterations with the given time slice.
func Compute(sys *gdp.System, n int, iters uint32, slice uint32) (*Handle, *obj.Fault) {
	return fleet(sys, n, []isa.Instr{
		isa.MovI(1, iters),
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 1),
		isa.Halt(),
	}, gdp.SpawnSpec{TimeSlice: slice})
}

// Churn spawns n allocation-churn processes, each creating and dropping
// allocs objects of objBytes from the system heap — collector fodder.
func Churn(sys *gdp.System, n int, allocs, objBytes uint32, slice uint32) (*Handle, *obj.Fault) {
	return fleet(sys, n, []isa.Instr{
		isa.MovI(4, allocs),
		isa.MovI(2, objBytes),
		isa.MovI(3, 1),
		isa.Create(1, 0, 2),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 3),
		isa.Halt(),
	}, gdp.SpawnSpec{
		TimeSlice: slice,
		AArgs:     [4]obj.AD{sys.Heap},
	})
}

// Pipeline builds a stages-deep pipeline: a generator feeding transform
// stages feeding an accumulator, connected by FIFO ports of the given
// capacity. The accumulator writes the payload sum into Results[0]; for
// items 1..N through S transform stages the expected sum is
// N(N+1)/2 + N*S.
func Pipeline(sys *gdp.System, stages int, items uint32, capacity uint16, slice uint32) (*Handle, *obj.Fault) {
	if stages < 1 {
		return nil, obj.Faultf(obj.FaultBounds, obj.NilAD, "pipeline needs ≥1 stage")
	}
	var l obj.Latch
	ports := make([]obj.AD, stages+1)
	for i := range ports {
		ports[i] = l.AD(sys.Ports.Create(sys.Heap, capacity, port.FIFO))
	}
	result := l.AD(sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}))

	gen := l.AD(Domain(sys, []isa.Instr{
		isa.MovI(4, items),
		isa.MovI(5, 1),
		isa.MovI(2, 8),
		isa.MovI(3, 0),
		isa.Create(1, 0, 2),
		isa.Store(5, 1, 0),
		isa.MovI(6, 0),
		isa.Send(1, 2, 6),
		isa.AddI(5, 5, 1),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 2),
		isa.Halt(),
	}))
	xform := l.AD(Domain(sys, []isa.Instr{
		isa.MovI(4, items),
		isa.Recv(1, 2),
		isa.Load(0, 1, 0),
		isa.AddI(0, 0, 1),
		isa.Store(0, 1, 0),
		isa.MovI(6, 0),
		isa.Send(1, 3, 6),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 1),
		isa.Halt(),
	}))
	acc := l.AD(Domain(sys, []isa.Instr{
		isa.MovI(4, items),
		isa.MovI(5, 0),
		isa.Recv(1, 2),
		isa.Load(0, 1, 0),
		isa.Add(5, 5, 0),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 2),
		isa.Store(5, 3, 0),
		isa.Halt(),
	}))

	h := &Handle{Results: []obj.AD{result}}
	spawn := func(dom obj.AD, in, out obj.AD) {
		h.Procs = append(h.Procs, l.AD(sys.Spawn(dom, gdp.SpawnSpec{
			TimeSlice: slice,
			AArgs:     [4]obj.AD{sys.Heap, obj.NilAD, in, out},
		})))
	}
	spawn(gen, ports[0], obj.NilAD)
	for i := 0; i < stages; i++ {
		if i == stages-1 {
			spawn(acc, ports[i], result)
		} else {
			spawn(xform, ports[i], ports[i+1])
		}
	}
	if f := l.Fault(); f != nil {
		return nil, f
	}
	return h, nil
}

// PipelineExpected reports the accumulator sum Pipeline should produce.
func PipelineExpected(stages int, items uint32) uint32 {
	// Sum 1..items, each item incremented once per transform stage
	// (the accumulator stage adds, not increments).
	return items*(items+1)/2 + items*uint32(stages-1)
}

// ForkJoin spawns a binary process tree of the given depth; each leaf
// spins for iters. It exercises process creation under load; the basic
// process manager's tree operations apply to the result.
func ForkJoin(sys *gdp.System, depth int, iters uint32, slice uint32) (*Handle, *obj.Fault) {
	if depth < 0 || depth > 8 {
		return nil, obj.Faultf(obj.FaultBounds, obj.NilAD, "depth %d outside 0..8", depth)
	}
	var l obj.Latch
	leafDom := l.AD(Domain(sys, []isa.Instr{
		isa.MovI(1, iters),
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 1),
		isa.Halt(),
	}))
	h := &Handle{}
	var build func(parent obj.AD, d int)
	build = func(parent obj.AD, d int) {
		p := l.AD(sys.Spawn(leafDom, gdp.SpawnSpec{TimeSlice: slice, Parent: parent}))
		h.Procs = append(h.Procs, p)
		if d > 0 {
			build(p, d-1)
			build(p, d-1)
		}
	}
	build(obj.NilAD, depth)
	if f := l.Fault(); f != nil {
		return nil, f
	}
	return h, nil
}

// Verify checks a pipeline handle's result against the expectation.
func (h *Handle) Verify(sys *gdp.System, stages int, items uint32) error {
	if len(h.Results) == 0 {
		return nil
	}
	got, f := sys.Table.ReadDWord(h.Results[0], 0)
	if f != nil {
		return f
	}
	want := PipelineExpected(stages, items)
	if got != want {
		return fmt.Errorf("workload: pipeline sum %d, want %d", got, want)
	}
	return nil
}
