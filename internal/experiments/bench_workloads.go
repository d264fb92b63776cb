package experiments

// The four workloads -bench-pr8 measures at its three cache corners. Each
// builds a fresh system, drives it to idle under timedRun, and returns the
// elapsed virtual time, a checksum the corners must agree on, and the
// run's counters.

import (
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/vtime"
)

// computeLoop is the E3 worker: sum a countdown into r0, store it in the
// result object.
func computeLoop(iters uint32) []isa.Instr {
	return []isa.Instr{
		isa.MovI(1, iters),
		isa.MovI(0, 0),
		isa.Add(0, 0, 1),
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 2),
		isa.Store(0, 0, 0),
		isa.Halt(),
	}
}

// regLoop is the register-pressure worker: a long inner loop that is
// nothing but reg-reg ALU traffic between branches — every instruction
// hits the pinned register window, so this is the fast path's best case.
func regLoop(iters uint32) []isa.Instr {
	return []isa.Instr{
		isa.MovI(1, iters), // countdown
		isa.MovI(0, 0),     // accumulator
		isa.MovI(2, 3),     // stride
		isa.Add(0, 0, 2),   // loop: 8 ALU ops, then the branch
		isa.Mul(3, 0, 2),
		isa.Sub(4, 3, 0),
		isa.Mov(5, 4),
		isa.Add(0, 0, 5),
		isa.Sub(6, 0, 2),
		isa.Mov(7, 6),
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 3),
		isa.Store(0, 0, 0),
		isa.Halt(),
	}
}

// spawnWorkers starts `workers` run-to-completion processes (no time
// slice), worker i running prog(iters+i) with a private 8-byte result
// object in a0, and returns the result objects.
func spawnWorkers(sys *gdp.System, workers int, iters uint32, prog func(uint32) []isa.Instr) ([]obj.AD, error) {
	results := make([]obj.AD, workers)
	for i := range results {
		r, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			return nil, f
		}
		dom, f := makeDomain(sys, prog(iters+uint32(i)))
		if f != nil {
			return nil, f
		}
		if _, f := sys.Spawn(dom, gdp.SpawnSpec{AArgs: [4]obj.AD{r}}); f != nil {
			return nil, f
		}
		results[i] = r
	}
	return results, nil
}

// spawnPingPong starts the E12 blocking pair: two processes bouncing one
// message over capacity-1 ports msgs times, so every quantum communicates.
func spawnPingPong(sys *gdp.System, msgs int) error {
	ping, f := sys.Ports.Create(sys.Heap, 1, 0)
	if f != nil {
		return f
	}
	pong, f := sys.Ports.Create(sys.Heap, 1, 0)
	if f != nil {
		return f
	}
	ball, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		return f
	}
	player := func(starts bool) []isa.Instr {
		prog := []isa.Instr{isa.MovI(4, uint32(msgs)), isa.MovI(5, 0)}
		loop := uint32(len(prog))
		if starts {
			prog = append(prog, isa.Send(1, 3, 5), isa.Recv(1, 2))
		} else {
			prog = append(prog, isa.Recv(1, 2), isa.Send(1, 3, 5))
		}
		return append(prog, isa.AddI(4, 4, ^uint32(0)), isa.BrNZ(4, loop), isa.Halt())
	}
	serveDom, f := makeDomain(sys, player(true))
	if f != nil {
		return f
	}
	returnDom, f := makeDomain(sys, player(false))
	if f != nil {
		return f
	}
	if _, f := sys.Spawn(serveDom, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, ball, pong, ping}}); f != nil {
		return f
	}
	if _, f := sys.Spawn(returnDom, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, ping, pong}}); f != nil {
		return f
	}
	return nil
}

// runBench drives a built system to idle and folds the checksum the
// corners are compared on: every worker's result dword, plus the
// processors' dispatch counters when withDispatches is set (the shapes
// that block, where the dispatch count is the observable).
func runBench(sys *gdp.System, results []obj.AD, withDispatches bool) (vtime.Cycles, uint64, benchStats, error) {
	elapsed, runNs, f := timedRun(sys)
	if f != nil {
		return 0, 0, benchStats{}, f
	}
	var sum uint64
	for _, r := range results {
		v, f := sys.Table.ReadDWord(r, 0)
		if f != nil {
			return 0, 0, benchStats{}, f
		}
		sum += uint64(v)
	}
	if withDispatches {
		for _, cpu := range sys.CPUs {
			sum += cpu.Dispatches
		}
	}
	return elapsed, sum, benchStats{Trace: sys.TraceStats(), RunNs: runNs}, nil
}

func benchSystem(cpus int, nocache, notrace bool) (*gdp.System, error) {
	return gdp.New(gdp.Config{Processors: cpus, NoExecCache: nocache, NoTraceJIT: notrace})
}

// benchCompute is the E3 shape: compute workers spread over several
// processors.
func benchCompute(cpus, workers int, iters uint32, nocache, notrace bool) (vtime.Cycles, uint64, benchStats, error) {
	sys, err := benchSystem(cpus, nocache, notrace)
	if err != nil {
		return 0, 0, benchStats{}, err
	}
	results, err := spawnWorkers(sys, workers, iters, computeLoop)
	if err != nil {
		return 0, 0, benchStats{}, err
	}
	return runBench(sys, results, false)
}

// benchRegLoop is the register-pressure shape on several processors.
func benchRegLoop(cpus, workers int, iters uint32, nocache, notrace bool) (vtime.Cycles, uint64, benchStats, error) {
	sys, err := benchSystem(cpus, nocache, notrace)
	if err != nil {
		return 0, 0, benchStats{}, err
	}
	results, err := spawnWorkers(sys, workers, iters, regLoop)
	if err != nil {
		return 0, 0, benchStats{}, err
	}
	return runBench(sys, results, false)
}

// benchPingPong is the E12 blocking shape on two processors.
func benchPingPong(msgs int, nocache, notrace bool) (vtime.Cycles, uint64, benchStats, error) {
	sys, err := benchSystem(2, nocache, notrace)
	if err != nil {
		return 0, 0, benchStats{}, err
	}
	if err := spawnPingPong(sys, msgs); err != nil {
		return 0, 0, benchStats{}, err
	}
	return runBench(sys, nil, true)
}

// benchMixed is a blocking ping-pong pair sharing the machine with
// disjoint compute workers.
func benchMixed(cpus, workers int, iters uint32, msgs int, nocache, notrace bool) (vtime.Cycles, uint64, benchStats, error) {
	sys, err := benchSystem(cpus, nocache, notrace)
	if err != nil {
		return 0, 0, benchStats{}, err
	}
	if err := spawnPingPong(sys, msgs); err != nil {
		return 0, 0, benchStats{}, err
	}
	results, err := spawnWorkers(sys, workers, iters, computeLoop)
	if err != nil {
		return 0, 0, benchStats{}, err
	}
	return runBench(sys, results, true)
}
