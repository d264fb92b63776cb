package gdp

// Properties of the cached interpreter (xcache.go) that the scenario tests
// do not sweep: where one execOne stops, for every limit, and what becomes
// of an instruction naming a register that does not exist, for every
// register field. These tests drive execOne directly on a {nocache, cache}
// pair of twins and know nothing of how the cached side is built, but for
// the memo's way count, which two colliding operands read, and the last,
// which reads predecode's table.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/vtime"
)

// loopTwin is one machine of a differential pair, with process 0 bound to
// cpu and stepped to just past its first instruction (a Nop).
type loopTwin struct {
	s      *System
	cpu    *CPU
	procs  []obj.AD
	data   obj.AD // a0
	events []TraceEvent
}

// buildLoopTwin boots a small system, spawns prog with a 16-byte data
// object in a0, a port in a1 and args in r0..r3, plus — when spin is set —
// a second process spinning on a second processor so that bus contention
// has someone to contend with, and binds everything with one Step(1).
func buildLoopTwin(t *testing.T, cfg Config, prog []isa.Instr, args [4]uint32, spin bool) *loopTwin {
	t.Helper()
	return buildOperandTwin(t, cfg, prog, args, spin, nil)
}

// buildOperandTwin is buildLoopTwin with operands: before the binding
// step, operands (when not nil) may create objects and fill a2 and a3.
func buildOperandTwin(t *testing.T, cfg Config, prog []isa.Instr, args [4]uint32, spin bool, operands func(t *testing.T, w *loopTwin)) *loopTwin {
	t.Helper()
	cfg.MemoryBytes, cfg.Processors = 32<<10, 1
	if spin {
		cfg.Processors = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
	if f != nil {
		t.Fatal(f)
	}
	prt, f := s.Ports.Create(s.Heap, 64, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	w := &loopTwin{s: s, data: data}
	w.procs = append(w.procs, spawnProg(t, s, prog, SpawnSpec{Args: args, AArgs: [4]obj.AD{data, prt}}))
	if spin {
		w.procs = append(w.procs, spawnProg(t, s, []isa.Instr{isa.Br(0)}, SpawnSpec{}))
	}
	if operands != nil {
		operands(t, w)
	}
	if _, f := s.Step(1); f != nil {
		t.Fatal(f)
	}
	for _, cpu := range s.CPUs {
		if cpu.proc == w.procs[0] {
			w.cpu = cpu
		}
	}
	if w.cpu == nil {
		t.Fatal("process 0 is not bound after the first step")
	}
	return w
}

// catchUp steps the reference one instruction at a time until it has
// retired as many as the cached twin, plus one more fetch when the cached
// twin reported a fault the reference has not met yet (an IP out of range
// faults before it is counted). It returns the reference's fault.
func catchUp(ref, cached *loopTwin, wantFault bool) *obj.Fault {
	for ref.cpu.Instructions < cached.cpu.Instructions {
		if _, f := ref.s.execOne(ref.cpu, 1); f != nil {
			return f
		}
	}
	if wantFault {
		_, f := ref.s.execOne(ref.cpu, 1)
		return f
	}
	return nil
}

func faultString(f *obj.Fault) string {
	if f == nil {
		return "no fault"
	}
	return fmt.Sprintf("code=%v ad=%v: %v", f.Code, f.AD, f)
}

// quietInjector comes due once, does nothing to the machine, and records
// the system instruction count it fired at.
type quietInjector struct {
	at      uint64
	firedAt []uint64
}

func (i *quietInjector) NextAt() uint64 {
	if len(i.firedAt) > 0 {
		return ^uint64(0)
	}
	return i.at
}

func (i *quietInjector) Fire(s *System, cpu *CPU) *obj.Fault {
	i.firedAt = append(i.firedAt, s.instructions)
	return nil
}

// stopLineProg mixes everything the loop retires with one thing it does
// not: an ALU run, a load, a store, taken and untaken branches of each
// kind, a Send, and a self-loop to spin out any limit.
var stopLineProg = []isa.Instr{
	isa.Nop(), // retired by the binding step
	isa.MovI(1, 3),
	isa.MovI(2, 1),
	isa.Add(3, 3, 2), // ip 3: loop head
	isa.Sub(4, 3, 2),
	isa.Mul(5, 3, 3),
	isa.Mov(6, 5),
	isa.AddI(1, 1, ^uint32(0)),
	isa.Load(7, 0, 0),
	isa.Store(3, 0, 4),
	isa.BrZ(1, 13),     // untaken twice, then taken
	isa.BrLT(2, 3, 3),  // r2 < r3 from the second pass on: taken
	isa.Br(3),          // first pass only
	isa.Send(0, 1, 2),  // ip 13: not the loop's
	isa.BrNZ(2, 16),    // taken
	isa.FaultInject(1), // skipped
	isa.Br(16),         // ip 16: self-loop
}

// countdownProg counts r1 down from its argument (r0 keeps a copy) in
// `addi r1,r1,-1; brnz r1,here` pairs: from the start — 0 wraps, and
// spins out any limit — then, after a bump of r2, from the start again,
// entered straight at the BrNZ, then round again.
var countdownProg = []isa.Instr{
	isa.Nop(),                  // retired by the binding step
	isa.AddI(1, 1, ^uint32(0)), // ip 1
	isa.BrNZ(1, 1),
	isa.AddI(2, 2, 1), // a second register, bumped between pairs
	isa.Mov(1, 0),
	isa.Br(7),
	isa.AddI(1, 1, ^uint32(0)), // ip 6
	isa.BrNZ(1, 6),             // ip 7: the entry
	isa.AddI(2, 2, 1),
	isa.Mov(1, 0),
	isa.Br(1),
}

// The programs below drive loads and stores through the operand memo: a0
// is the 16-byte data object, and a case's operands, when set, fill a2 or
// a3 before the binding step.

// computeProg is the benchmark's compute loop in miniature — load, three
// ALU ops, store, and `addi; brnz` back to the load, not a countdown —
// for r1 passes, then a self-loop.
var computeProg = []isa.Instr{
	isa.Nop(), // retired by the binding step
	isa.MovI(5, 7),
	isa.MovI(6, 3),
	isa.MovI(7, 2),
	isa.Load(0, 0, 0), // ip 4: loop head
	isa.Add(0, 0, 5),
	isa.Mul(0, 0, 6),
	isa.Sub(0, 0, 7),
	isa.Store(0, 0, 0),
	isa.AddI(1, 1, ^uint32(0)),
	isa.BrNZ(1, 4),
	isa.Br(11), // ip 11: self-loop
}

// collideProg alternates between a0 and a2, two objects whose indices
// share a memo way, so every other access misses.
var collideProg = []isa.Instr{
	isa.Nop(),
	isa.Load(2, 0, 0), // ip 1: loop head
	isa.Store(2, 2, 4),
	isa.Load(3, 2, 0),
	isa.Store(3, 0, 8),
	isa.AddI(1, 1, ^uint32(0)),
	isa.BrNZ(1, 1),
	isa.Br(7),
}

// boundsProg loads the last dword of a0 for r1 passes — a hit from the
// second on — and then the dword one byte further, which is out of bounds.
var boundsProg = []isa.Instr{
	isa.Nop(),
	isa.Load(2, 0, 12), // ip 1: loop head
	isa.AddI(1, 1, ^uint32(0)),
	isa.BrNZ(1, 1),
	isa.Load(3, 0, 13),
	isa.Br(5),
}

// readOnlyProg reads through a3, a0 without the write right — the same
// object, so the same way under another key — in turn with a0, then
// stores through a3 while the way holds a0.
var readOnlyProg = []isa.Instr{
	isa.Nop(),
	isa.Load(2, 3, 0), // ip 1: loop head
	isa.Load(4, 0, 4),
	isa.AddI(1, 1, ^uint32(0)),
	isa.BrNZ(1, 1),
	isa.Store(2, 3, 4),
	isa.Br(6),
}

// selfProg reads and writes its own context through a2: the IP word, which
// the reference has advanced before the access, and register r5.
var selfProg = []isa.Instr{
	isa.Nop(),
	isa.Load(2, 0, 0), // ip 1: loop head
	isa.Load(3, 2, process.CtxOffIP),
	isa.Store(3, 2, process.CtxOffRegs+5*4),
	isa.Add(6, 5, 3),
	isa.AddI(1, 1, ^uint32(0)),
	isa.BrNZ(1, 1),
	isa.Br(7),
}

// collidingOperand puts in a2 a fresh 16-byte object whose index falls in
// a0's memo way.
func collidingOperand(t *testing.T, w *loopTwin) {
	t.Helper()
	for {
		ad, f := w.s.SROs.Create(w.s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
		if f != nil {
			t.Fatal(f)
		}
		if ad.Index%resolveWays == w.data.Index%resolveWays {
			setAReg(t, w.s, loopContext(t, w), 2, ad)
			return
		}
	}
}

// readOnlyOperand puts a0 without the write right in a3.
func readOnlyOperand(t *testing.T, w *loopTwin) {
	t.Helper()
	setAReg(t, w.s, loopContext(t, w), 3, w.data.Restrict(obj.RightWrite))
}

// selfOperand puts the process's own context in a2.
func selfOperand(t *testing.T, w *loopTwin) {
	t.Helper()
	ctx := loopContext(t, w)
	setAReg(t, w.s, ctx, 2, ctx)
}

func loopContext(t *testing.T, w *loopTwin) obj.AD {
	t.Helper()
	ctx, f := w.s.Procs.Context(w.procs[0])
	if f != nil {
		t.Fatal(f)
	}
	return ctx
}

// stopLineCase is one execOne limit on one program under one corner of
// the observers: a bus surcharge, an injector due that many instructions
// after the binding step (0: none), an instruction observer.
type stopLineCase struct {
	prog       []isa.Instr
	args       [4]uint32
	operands   func(t *testing.T, w *loopTwin)
	contention vtime.Cycles
	due        uint64
	observe    bool
	limit      vtime.Cycles
}

// machineDiff compares two twins directly and describes the first
// difference, or returns "": every processor's clock and counters, the
// system's counters but Primes (the one count the corners differ in by
// design: nocache never binds), and every live object's descriptor and
// bytes — process states, contexts and operands among them.
func machineDiff(ref, cached *System) string {
	for i, a := range ref.CPUs {
		b := cached.CPUs[i]
		if a.Clock.Now() != b.Clock.Now() || a.sliceLeft != b.sliceLeft || a.Instructions != b.Instructions ||
			a.Dispatches != b.Dispatches || a.IdleCycles != b.IdleCycles || a.proc != b.proc {
			return fmt.Sprintf("cpu%d: clock %d/%d, slice %d/%d, instructions %d/%d, dispatches %d/%d, idle %d/%d, bound %v/%v",
				a.ID, a.Clock.Now(), b.Clock.Now(), a.sliceLeft, b.sliceLeft, a.Instructions, b.Instructions,
				a.Dispatches, b.Dispatches, a.IdleCycles, b.IdleCycles, a.proc, b.proc)
		}
	}
	sa, sb := ref.Stats(), cached.Stats()
	sa.Primes, sb.Primes = 0, 0
	if sa != sb || ref.Now() != cached.Now() {
		return fmt.Sprintf("stats %+v now %d / %+v now %d", sa, ref.Now(), sb, cached.Now())
	}
	if ref.Table.Len() != cached.Table.Len() {
		return fmt.Sprintf("table length %d/%d", ref.Table.Len(), cached.Table.Len())
	}
	ma, mb := ref.Table.Memory(), cached.Table.Memory()
	for i := 1; i < ref.Table.Len(); i++ {
		a, b := ref.Table.DescriptorAt(obj.Index(i)), cached.Table.DescriptorAt(obj.Index(i))
		switch {
		case a == nil && b == nil:
		case a == nil || b == nil:
			return fmt.Sprintf("object %d: live %v/%v", i, a != nil, b != nil)
		case a.Gen != b.Gen || a.Type != b.Type || a.SwappedOut() != b.SwappedOut():
			return fmt.Sprintf("object %d: gen %d/%d, type %v/%v, swapped out %v/%v", i, a.Gen, b.Gen, a.Type, b.Type, a.SwappedOut(), b.SwappedOut())
		case a.SwappedOut():
		case !bytes.Equal(ma.Window(a.Data()), mb.Window(b.Data())):
			return fmt.Sprintf("object %d: data\n% x\n% x", i, ma.Window(a.Data()), mb.Window(b.Data()))
		case !bytes.Equal(ma.Window(a.Access()), mb.Window(b.Access())):
			return fmt.Sprintf("object %d: access part\n% x\n% x", i, ma.Window(a.Access()), mb.Window(b.Access()))
		}
	}
	return ""
}

// checkStopLine drives the cached twin of c with execOne(limit) until it
// has retired retire instructions or faulted, and the reference beside it
// one instruction at a time, failing on the first call that retires an
// instruction past the line, reports other cycles or another fault than
// the reference, or leaves the machine anywhere else. It returns the
// fault the run ended in, if any.
func checkStopLine(t *testing.T, name string, c stopLineCase, retire uint64) *obj.Fault {
	t.Helper()
	ref := buildOperandTwin(t, Config{BusContention: c.contention, NoExecCache: true}, c.prog, c.args, true, c.operands)
	cached := buildOperandTwin(t, Config{BusContention: c.contention}, c.prog, c.args, true, c.operands)
	injs := [2]*quietInjector{}
	for i, w := range []*loopTwin{ref, cached} {
		w := w
		if c.due > 0 {
			injs[i] = &quietInjector{at: w.s.instructions + c.due}
			w.s.SetInjector(injs[i])
		}
		if c.observe {
			w.s.Trace = func(cpu int, proc obj.AD, ev TraceEvent) { w.events = append(w.events, ev) }
		}
	}
	end := cached.cpu.Instructions + retire
	var fault *obj.Fault
	for fault == nil && cached.cpu.Instructions < end {
		before := cached.cpu.Instructions
		got, f := cached.s.execOne(cached.cpu, c.limit)
		n := cached.cpu.Instructions - before
		if n == 0 {
			t.Fatalf("%s: at instruction %d the call retired nothing", name, before)
		}
		var spent vtime.Cycles
		var rf *obj.Fault
		for i := uint64(0); i < n; i++ {
			if spent >= c.limit {
				t.Fatalf("%s: at instruction %d the call retired %d instructions, but the first %d already spend %d of %d cycles",
					name, before, n, i, spent, c.limit)
			}
			if rf != nil {
				t.Fatalf("%s: at instruction %d the call retired %d instructions, but the reference faulted at the %dth: %v",
					name, before, n, i, rf)
			}
			cost, f := ref.s.execOne(ref.cpu, 1)
			if cost < vtime.CostALU+c.contention {
				t.Fatalf("%s: an instruction cost %d: the spinning neighbour is not counted busy", name, cost)
			}
			spent, rf = spent+cost, f
		}
		if x, y := faultString(rf), faultString(f); x != y {
			t.Fatalf("%s: at instruction %d the reference ends in %s, the cached twin in %s", name, before, x, y)
		}
		if got != spent {
			t.Fatalf("%s: at instruction %d the call reported %d cycles for %d instructions; the reference spends %d",
				name, before, got, n, spent)
		}
		if d := machineDiff(ref.s, cached.s); d != "" {
			t.Fatalf("%s: at instruction %d the cached machine diverged: %s", name, before, d)
		}
		fault = f
	}
	if !reflect.DeepEqual(ref.events, cached.events) {
		t.Fatalf("%s: observers saw different runs\n--- nocache ---\n%v\n--- cache ---\n%v", name, ref.events, cached.events)
	}
	if c.observe && uint64(len(cached.events)) != cached.cpu.Instructions-(end-retire) {
		t.Fatalf("%s: observer saw %d events", name, len(cached.events))
	}
	if c.due > 0 && (fault == nil && len(injs[1].firedAt) != 1 || !reflect.DeepEqual(injs[0].firedAt, injs[1].firedAt)) {
		t.Fatalf("%s: injector fired at %v on the reference, %v cached", name, injs[0].firedAt, injs[1].firedAt)
	}
	return fault
}

// TestRunLoopStopsWhereTheReferenceStops: however many instructions one
// execOne(limit) on the cached twin retires, none of them comes after the
// line — the instruction that takes the cycles spent (surcharge included)
// to limit is the last, the injector fires at the same instruction count
// as on the reference, an observer sees every instruction — and the
// machine is where the reference is after as many instructions, or in the
// same fault. (That a call runs all the way to the line is
// TestRunLoopAllocFree's to pin.) The programs are stopLineProg,
// countdownProg from 9, 0, 1 and 2, and the five operand programs, two of
// which must end in the reference's fault.
func TestRunLoopStopsWhereTheReferenceStops(t *testing.T) {
	const retire = 48 // instructions driven per case: the program, then some spin
	type program struct {
		name     string
		prog     []isa.Instr
		args     [4]uint32
		operands func(t *testing.T, w *loopTwin)
		faults   bool
	}
	progs := []program{{name: "mix", prog: stopLineProg}}
	for _, start := range []uint32{9, 0, 1, 2} {
		progs = append(progs, program{name: fmt.Sprintf("countdown from %d", start), prog: countdownProg, args: [4]uint32{start, start}})
	}
	progs = append(progs,
		program{name: "compute", prog: computeProg, args: [4]uint32{1: 4}},
		program{name: "colliding ways", prog: collideProg, args: [4]uint32{1: 5}, operands: collidingOperand},
		program{name: "out of bounds after a hit", prog: boundsProg, args: [4]uint32{1: 3}, faults: true},
		program{name: "store through read-only", prog: readOnlyProg, args: [4]uint32{1: 3}, operands: readOnlyOperand, faults: true},
		program{name: "self-naming operand", prog: selfProg, args: [4]uint32{1: 4}, operands: selfOperand},
	)
	for _, p := range progs {
		for _, contention := range []vtime.Cycles{0, 3} {
			for _, due := range []uint64{0, 1, 2, 7} {
				for _, observe := range []bool{false, true} {
					for limit := vtime.Cycles(1); limit <= 130; limit++ {
						name := fmt.Sprintf("%s contention=%d due=%d observe=%v limit=%d", p.name, contention, due, observe, limit)
						c := stopLineCase{prog: p.prog, args: p.args, operands: p.operands, contention: contention, due: due, observe: observe, limit: limit}
						if f := checkStopLine(t, name, c, retire); (f != nil) != p.faults {
							t.Fatalf("%s: ended in %s", name, faultString(f))
						}
					}
				}
			}
		}
	}
}

// FuzzCountdownStopLine is TestRunLoopStopsWhereTheReferenceStops over
// countdownProg from any start, any limit and any injector due, with and
// without the observer.
func FuzzCountdownStopLine(f *testing.F) {
	f.Add(uint32(9), uint16(37), uint8(0), false)
	f.Add(uint32(0), uint16(130), uint8(7), true)
	f.Add(uint32(1), uint16(1), uint8(1), true)
	f.Add(uint32(300), uint16(999), uint8(200), false)
	f.Fuzz(func(t *testing.T, start uint32, limit uint16, due uint8, contended bool) {
		if limit == 0 {
			return // stepVM never asks for less than a cycle
		}
		contention := vtime.Cycles(0)
		if contended {
			contention = 3
		}
		retire := max(48, uint64(due)+1) // past the injector, which must fire
		for _, observe := range []bool{false, true} {
			name := fmt.Sprintf("start=%d contention=%d due=%d observe=%v limit=%d", start, contention, due, observe, limit)
			c := stopLineCase{prog: countdownProg, args: [4]uint32{start, start}, contention: contention, due: uint64(due), observe: observe, limit: vtime.Cycles(limit)}
			if f := checkStopLine(t, name, c, retire); f != nil {
				t.Fatalf("%s: faulted: %v", name, f)
			}
		}
	})
}

// TestPredecodeRejectionMatrix: every fast opcode with every boundary
// register number in every field (the third register of the
// three-register ops past a byte too), every branch with targets around
// the end of the program, loads and stores around the end of the object —
// each as the second instruction of a program that then runs off its end.
// Whatever the cached side refuses to run itself must surface from it as
// the reference's fault: same code, same AD, same text, same machine.
func TestPredecodeRejectionMatrix(t *testing.T) {
	regs := []uint8{0, isa.NumAccessRegs - 1, isa.NumAccessRegs, isa.NumDataRegs - 1, isa.NumDataRegs, 255}
	const progLen = 4 // Nop, the instruction under test, Nop, Nop
	thirds := map[isa.Op][]uint32{
		isa.OpNop:   {0},
		isa.OpMovI:  {0, 0xdeadbeef},
		isa.OpMov:   {0},
		isa.OpAdd:   {0, isa.NumDataRegs - 1, isa.NumDataRegs, 255, 256, 256 + isa.NumDataRegs, 1 << 31},
		isa.OpAddI:  {1, ^uint32(0)},
		isa.OpBr:    {progLen - 1, progLen, progLen + 1},
		isa.OpLoad:  {0, 12, 13, 16, ^uint32(0)},
		isa.OpStore: {0, 12, 13, 16, ^uint32(0)},
	}
	thirds[isa.OpSub], thirds[isa.OpMul] = thirds[isa.OpAdd], thirds[isa.OpAdd]
	thirds[isa.OpBrZ], thirds[isa.OpBrNZ], thirds[isa.OpBrLT] = thirds[isa.OpBr], thirds[isa.OpBr], thirds[isa.OpBr]
	if len(thirds) != 13 {
		t.Fatalf("matrix covers %d opcodes, the fast set has 13", len(thirds))
	}
	cases, refused := 0, 0
	for op, cs := range thirds {
		for _, a := range regs {
			for _, b := range regs {
				for _, c := range cs {
					// Zero registers take BrZ; these take BrNZ and, one
					// way round, BrLT.
					for _, args := range [][4]uint32{{}, {5, 1, 2, 9}} {
						in := isa.Instr{Op: op, A: a, B: b, C: c}
						prog := []isa.Instr{isa.Nop(), in, isa.Nop(), isa.Nop()}
						ref := buildLoopTwin(t, Config{NoExecCache: true}, prog, args, false)
						cached := buildLoopTwin(t, Config{}, prog, args, false)
						cases++
						// Every call retires something or faults, and the
						// program runs off its end.
						base := cached.cpu.Instructions
						for call := 0; ; call++ {
							_, cf := cached.s.execOne(cached.cpu, 1_000)
							rf := catchUp(ref, cached, cf != nil)
							if x, y := faultString(rf), faultString(cf); x != y {
								t.Fatalf("%v args %v call %d: reference %s, cached %s", in, args, call, x, y)
							}
							if x, y := deoptFingerprint(ref.s, ref.procs), deoptFingerprint(cached.s, cached.procs); x != y {
								t.Fatalf("%v args %v call %d: cached machine diverged\n--- nocache ---\n%s--- cache ---\n%s", in, args, call, x, y)
							}
							if cf != nil {
								if cached.cpu.Instructions == base+1 {
									refused++
								}
								break
							}
							if call == progLen {
								t.Fatalf("%v args %v: still running after %d calls on a %d-instruction program", in, args, call+1, progLen)
							}
						}
					}
				}
			}
		}
	}
	if refused == 0 || refused == cases {
		t.Fatalf("%d of %d cases faulted at the instruction under test; the matrix is one-sided", refused, cases)
	}
}

// TestPredecodeFusesOnlyTheCountdown: predecode marks kDown on the AddI of
// `addi rX,rX,-1; brnz rX,<that addi>` and on nothing else, and the BrNZ
// keeps its own kind.
func TestPredecodeFusesOnlyTheCountdown(t *testing.T) {
	const down = ^uint32(0)
	top := uint8(isa.NumDataRegs - 1)
	cases := []struct {
		name string
		prog []isa.Instr
		at   int   // the AddI
		want uint8 // its kind
	}{
		{"countdown", []isa.Instr{isa.Nop(), isa.AddI(3, 3, down), isa.BrNZ(3, 1)}, 1, kDown},
		{"countdown at 0", []isa.Instr{isa.AddI(0, 0, down), isa.BrNZ(0, 0), isa.Nop()}, 0, kDown},
		{"countdown in the top register", []isa.Instr{isa.Nop(), isa.AddI(top, top, down), isa.BrNZ(top, 1)}, 1, kDown},
		{"a != b", []isa.Instr{isa.Nop(), isa.AddI(3, 4, down), isa.BrNZ(3, 1)}, 1, kAddI},
		{"imm +1", []isa.Instr{isa.Nop(), isa.AddI(3, 3, 1), isa.BrNZ(3, 1)}, 1, kAddI},
		{"imm -2", []isa.Instr{isa.Nop(), isa.AddI(3, 3, down-1), isa.BrNZ(3, 1)}, 1, kAddI},
		{"brnz on another register", []isa.Instr{isa.Nop(), isa.AddI(3, 3, down), isa.BrNZ(4, 1)}, 1, kAddI},
		{"brnz to itself", []isa.Instr{isa.Nop(), isa.AddI(3, 3, down), isa.BrNZ(3, 2)}, 1, kAddI},
		{"brnz before the addi", []isa.Instr{isa.Nop(), isa.AddI(3, 3, down), isa.BrNZ(3, 0)}, 1, kAddI},
		{"brz", []isa.Instr{isa.Nop(), isa.AddI(3, 3, down), isa.BrZ(3, 1)}, 1, kAddI},
		{"cut by the end", []isa.Instr{isa.Nop(), isa.AddI(3, 3, down)}, 1, kAddI},
		{"no such register", []isa.Instr{isa.Nop(), isa.AddI(isa.NumDataRegs, isa.NumDataRegs, down), isa.BrNZ(isa.NumDataRegs, 1)}, 1, kSlow},
	}
	for _, c := range cases {
		ops := predecode(c.prog)
		if ops[c.at].kind != c.want {
			t.Errorf("%s: the addi predecodes as kind %d, want %d", c.name, ops[c.at].kind, c.want)
		}
		for i, op := range ops {
			if i != c.at && op.kind == kDown {
				t.Errorf("%s: op %d predecodes as kDown", c.name, i)
			}
		}
		if c.want == kDown && ops[c.at+1].kind != kBrNZ {
			t.Errorf("%s: the brnz predecodes as kind %d, want %d", c.name, ops[c.at+1].kind, kBrNZ)
		}
	}
}
