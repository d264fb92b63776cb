package gdp

// The per-CPU execution cache: the simulation's stand-in for the on-chip
// state the real 432 microcode kept between instructions — the current
// context's register file, the instruction pointer, the decoded program of
// the current domain, and the most recently translated operand
// capabilities. The uncached interpreter re-derives all of this for every
// instruction — it opens the process and its context, resolves the domain
// and its code object — and the cache pins it between scheduling events and
// re-derives only when something could have changed.
//
// Correctness rests on one rule: every operation that could alias what the
// cache pins bumps obj.Table's cache generation — destruction, swap-out/in,
// compaction moves, a store into the context slot of a process (PushContext,
// PopContext), a store into the code slot of a domain, a user-reachable
// store into a context — and nothing else
// does (Table.CacheGen, moveAD): a process that parks and is woken through
// its carry slot comes back to a live binding, which applies the resume
// word itself (resume, the body the slow prologue calls too), and the prime
// that is left is the one a dispatch of another process or a context
// switch owes. The binding is the one place a running process's context is
// derived: the run loop, the resumption and every slow op work on its
// context view.
// execOneFast compares its generation snapshot on entry and re-primes on any
// mismatch; nothing the run loop retires can bump the generation, so the
// pinned windows stay exact for the whole call.
// Data-part writes never bump the generation and never need to: the cached
// windows are live views of physical memory (mem.Window), so ordinary data
// traffic is coherent by aliasing.
//
// The fast path must be byte-identical to the reference (execOneSlow,
// execInstr). Two disciplines enforce that:
//
//   - check-then-mutate: whatever a fast op needs validated is validated
//     before its first write — register numbers once, at predecode; the
//     operand capability, its rights and the displacement per execution,
//     by obj.View. A refusal retires nothing: the loop stops with the
//     machine at the last completed instruction and execInstr reproduces
//     the canonical outcome, fault or not.
//   - fast ops are exactly the ops whose reference implementations emit no
//     kernel trace events and mutate only data-part bytes; everything else
//     is predecoded as kSlow and runs the unchanged execInstr, on a copy of
//     the pinned context view, after a fast fetch whose writes (IP,
//     instruction counters) replicate the reference prologue exactly.

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
)

// resolveWays sizes the direct-mapped operand memo. Loads and stores in
// hot loops touch one or two objects; eight ways keeps the map trivial
// (index mod ways) while covering every a-reg twice over.
const resolveWays = 8

// xop is one predecoded instruction. kind is kSlow for every instruction
// outside the fast set and for any fast opcode naming a register that does
// not exist, so the run loop never validates a register number.
type xop struct {
	kind    uint8
	a, b, c uint8
	imm     uint32
}

const (
	kSlow = iota // not retired here: execInstr's
	kNop
	kMovI  // r[a] = imm
	kMov   // r[a] = r[b]
	kAdd   // r[a] = r[b] + r[c]
	kSub   // r[a] = r[b] - r[c]
	kMul   // r[a] = r[b] * r[c]
	kAddI  // r[a] = r[b] + imm
	kBr    // ip = imm
	kBrZ   // ip = imm if r[a] == 0
	kBrNZ  // ip = imm if r[a] != 0
	kBrLT  // ip = imm if r[a] < r[b]
	kLoad  // r[a] = dword at imm of the object a-reg b names
	kStore // dword at imm of the object a-reg b names = r[a]
	kDown  // kAddI r[a] = r[a] - 1, followed by kBrNZ r[a] back to it
)

// fastKind names the run loop's instruction for each opcode of the fast
// set; every other opcode reads kSlow.
var fastKind = [...]uint8{
	isa.OpNop: kNop, isa.OpMovI: kMovI, isa.OpMov: kMov, isa.OpAdd: kAdd,
	isa.OpSub: kSub, isa.OpMul: kMul, isa.OpAddI: kAddI, isa.OpBr: kBr,
	isa.OpBrZ: kBrZ, isa.OpBrNZ: kBrNZ, isa.OpBrLT: kBrLT,
	isa.OpLoad: kLoad, isa.OpStore: kStore,
}

// predecode translates prog op for op (len(ops) == len(prog)). Register
// fields are checked here, once, against the operand kinds of the opcode
// table; branch targets are not, because an IP at or past the end is the
// next fetch's FaultBounds, not the branch's. The AddI of a countdown
// `addi rX,rX,-1; brnz rX,<that addi>` becomes kDown; its BrNZ keeps its
// own kind, for a jump straight to it.
func predecode(prog []isa.Instr) []xop {
	ops := make([]xop, len(prog))
	for i, in := range prog {
		// The reference reads a three-register op's third register as
		// uint8(C); so does this.
		op := xop{a: in.A, b: in.B, c: uint8(in.C), imm: in.C}
		if int(in.Op) < len(fastKind) {
			op.kind = fastKind[in.Op]
		}
		for _, o := range in.Op.Spec().Args {
			if o.Kind == isa.DReg && in.Field(o) >= isa.NumDataRegs ||
				o.Kind == isa.AReg && in.Field(o) >= isa.NumAccessRegs {
				op.kind = kSlow
			}
		}
		ops[i] = op
	}
	for i := 1; i < len(ops); i++ {
		add, br := &ops[i-1], ops[i]
		if add.kind == kAddI && add.a == add.b && add.imm == ^uint32(0) &&
			br.kind == kBrNZ && br.a == add.a && br.imm == uint32(i-1) {
			add.kind = kDown
		}
	}
	return ops
}

// execCache is one processor's pinned execution state. It is valid only
// while gen equals the table's cache generation and proc equals the CPU's
// bound process; either mismatch sends the interpreter back to the prime.
type execCache struct {
	gen  uint64 // obj.Table.CacheGen() snapshot at prime time
	proc obj.AD // process this cache was primed for
	// pv is that process, opened for reading: a resumption reads and
	// clears its carry slot.
	pv obj.View
	// ctx is its current context, opened for reading and writing: the run
	// loop works on its windows — IP, resume word and register file in the
	// data part, linkage slots and access registers in the access part.
	ctx  obj.View
	dom  obj.AD // current domain (CtxSlotDomain at prime time)
	code obj.AD // the domain's code object (prog was decoded from it)
	prog []isa.Instr
	ops  []xop // prog predecoded (System.decodes); same length
	// res memoises obj.Table.Fill per operand capability: way index mod
	// resolveWays holds the view of the last AD that mapped there, and
	// key[way] the raw access-register word it was filled from (zero for
	// an empty way), so a hit is one compare of the word the register
	// holds; the view tests rights and bounds itself. Every view was
	// filled under gen, the only time it is consulted.
	res [resolveWays]obj.View
	key [resolveWays]uint64
}

func winIP(win []byte) uint32 {
	return binary.LittleEndian.Uint32(win[process.CtxOffIP:])
}

func setWinIP(win []byte, ip uint32) {
	binary.LittleEndian.PutUint32(win[process.CtxOffIP:], ip)
}

// live reports whether xc is current for the process bound to cpu: the
// next execOne runs the loop from it, with no prime. A cache never primed
// names no process, and the interpreter only asks with one bound.
func (xc *execCache) live(s *System, cpu *CPU) bool {
	return xc.gen == s.Table.CacheGen() && xc.proc == cpu.proc
}

// primeExecCache derives the binding as the slow prologue does — the
// process opened for reading, its current context for reading and writing,
// then domain, code and program — snapshots the cache generation, and pins
// both views: the context's, whose windows every later register access goes
// through, and the process's, whose carry slot a resumption empties. It
// mutates nothing in the object world, so a nil return (anything at all out
// of the ordinary) simply leaves the slow path to run and produce the
// canonical behaviour.
func (s *System) primeExecCache(cpu *CPU) *execCache {
	if s.xcOff || !cpu.proc.Valid() {
		return nil
	}
	s.primes++
	gen := s.Table.CacheGen()
	var pv, cv obj.View
	ok := s.Table.Fill(cpu.proc, obj.RightRead, &pv) && pv.Type() == obj.TypeProcess &&
		s.Table.Fill(pv.LoadAD(process.SlotContext), obj.RightRead|obj.RightWrite, &cv) && cv.Type() == obj.TypeContext
	data, access := cv.Windows()
	if !ok || len(data) < process.CtxDataBytes || len(access) < (process.CtxSlotA0+isa.NumAccessRegs)*obj.ADSlotSize {
		return nil
	}
	dom := cv.LoadAD(process.CtxSlotDomain)
	code, dec, f := s.fetch(dom, true)
	if f != nil {
		return nil
	}
	// Assigned in place: a fresh 900-byte literal is zeroed, then copied.
	xc := &cpu.xc
	xc.gen, xc.proc, xc.pv, xc.ctx = gen, cpu.proc, pv, cv
	xc.dom, xc.code, xc.prog, xc.ops = dom, code, dec.prog, dec.ops
	clear(xc.res[:]) // views filled under an older generation are dead
	clear(xc.key[:])
	return xc
}

// Predecode fetches the program of domain dom, predecoded under the
// execution cache, ahead of the first dispatch into it: a world builder
// calls it so that its run decodes nothing. It changes nothing in the object
// world; the first dispatch finds what it would have derived.
func (s *System) Predecode(dom obj.AD) *obj.Fault {
	_, _, f := s.fetch(dom, !s.xcOff)
	return f
}

// surcharge is the bus-contention wait every instruction pays this step
// round: busyThisStep is set once per Step and cannot change inside one.
func (s *System) surcharge() vtime.Cycles {
	if s.contention > 0 && s.busyThisStep > 1 {
		// Shared-bus arbitration: every other busy processor in this
		// step round adds a wait per instruction.
		return s.contention * vtime.Cycles(s.busyThisStep-1)
	}
	return 0
}

// runRegs retires ops from ip, at most room of them, stopping after the one
// that takes left to zero or below. It returns at the first op of any other
// kind, an ip outside ops, or a load or store it cannot retire, having
// touched nothing for that op. rf and ar are the context's two register
// files; alu, br and move are the three costs, surcharge included. It calls
// nothing: the view probes of loads and stores are inlined, so ip, left and
// the count stay in registers.
//
// A load or store retires here when its operand hits the memo: the raw word
// in its access register is non-zero and equals its way's key. The way's
// view tests rights and bounds itself (TryDWord, TrySetDWord); a refusal
// latches nothing and returns. Filling a way on a miss, emptying a refused
// one and refusing an operand that names the running context are
// execOneFast's, so no way ever holds the context, whose IP is deferred
// here.
//
// A kDown retires k whole passes of its pair at once: k is the least of
// the trips to the loop's exit, the passes that leave left above zero and
// the passes that fit room. Nothing reads the register between passes and
// the line is tested after each instruction, so the reference would stop
// at the same instruction: within pass k+1 if it stops at all before the
// exit. A k of 0 retires the AddI alone.
func (xc *execCache) runRegs(rf *regFile, ar *aregFile, ip uint32, left, alu, br, move int64, room uint64) (uint32, int64, uint64) {
	ops := xc.ops
	n := uint64(0)
	for ip < uint32(len(ops)) {
		op := ops[ip]
		switch op.kind {
		case kNop:
			ip, left = ip+1, left-alu
		case kMovI:
			regSet(rf, op.a, op.imm)
			ip, left = ip+1, left-alu
		case kMov:
			regSet(rf, op.a, regGet(rf, op.b))
			ip, left = ip+1, left-alu
		case kAdd:
			regSet(rf, op.a, regGet(rf, op.b)+regGet(rf, op.c))
			ip, left = ip+1, left-alu
		case kSub:
			regSet(rf, op.a, regGet(rf, op.b)-regGet(rf, op.c))
			ip, left = ip+1, left-alu
		case kMul:
			regSet(rf, op.a, regGet(rf, op.b)*regGet(rf, op.c))
			ip, left = ip+1, left-alu
		case kAddI:
			regSet(rf, op.a, regGet(rf, op.b)+op.imm)
			ip, left = ip+1, left-alu
		case kDown:
			v := regGet(rf, op.a)
			trips := int64(v)
			if v == 0 {
				trips = 1 << 32
			}
			if k := min(trips, (left-1)/(alu+br), int64((room-n)/2)); k > 0 {
				regSet(rf, op.a, v-uint32(k))
				if k == trips {
					ip += 2
				}
				left, n = left-k*(alu+br), n+2*uint64(k)-1 // the last one is counted below
			} else {
				regSet(rf, op.a, v-1)
				ip, left = ip+1, left-alu
			}
		case kBr:
			ip, left = op.imm, left-br
		case kBrZ:
			if ip++; regGet(rf, op.a) == 0 {
				ip = op.imm
			}
			left -= br
		case kBrNZ:
			if ip++; regGet(rf, op.a) != 0 {
				ip = op.imm
			}
			left -= br
		case kBrLT:
			if ip++; regGet(rf, op.a) < regGet(rf, op.b) {
				ip = op.imm
			}
			left -= br
		case kLoad, kStore:
			word := aregWord(ar, op.b)
			way := uint32(word) % resolveWays
			if word == 0 || word != xc.key[way] {
				return ip, left, n
			}
			v := &xc.res[way]
			ok := false
			if op.kind == kLoad {
				var x uint32
				if x, ok = v.TryDWord(op.imm); ok {
					regSet(rf, op.a, x)
				}
			} else {
				ok = v.TrySetDWord(op.imm, regGet(rf, op.a))
			}
			if !ok {
				return ip, left, n
			}
			ip, left = ip+1, left-move
		default:
			return ip, left, n
		}
		if n++; left <= 0 || n >= room {
			break
		}
	}
	return ip, left, n
}

// execOneFast is the cached interpreter. A pending resume action is applied
// first, by resume through copies of the binding's process and context
// views; a refusal returns its fault as the slow path does, with nothing
// retired. It reports handled=false when the cache cannot be primed or the
// IP is out of bounds, having changed nothing else; the slow path then
// re-derives everything and produces the canonical outcome.
//
// Otherwise it retires instructions from the cached IP, holding the IP,
// the cycles left and the count in locals, until one of five things:
// the instruction that crosses limit (the quantum's remaining allowance —
// stepVM mins the budget and the time slice — counted with the surcharge;
// instructions are atomic, so the line is tested after each one), the
// instruction at which the injector is due (or, under an s.Trace observer,
// after one: the observer is owed an event per instruction), a kSlow op, a
// load or store obj refuses or whose operand names the running context, or
// an IP outside the program. A load or store that misses the memo fills
// its way here and goes back to runRegs. For what it retired it then
// writes the IP, both instruction counters and one Clock.Charge. If it
// stopped at an instruction it does not retire — a kSlow op or a refused
// guard — with cycles and room left inside the program, that instruction
// goes to execInstr in the same call, on a copy of the binding's context
// view, after a fast fetch: the reference would execute it next.
func (s *System) execOneFast(cpu *CPU, limit vtime.Cycles) (vtime.Cycles, *obj.Fault, bool) {
	xc := &cpu.xc
	if s.xcOff || !xc.live(s, cpu) {
		if xc = s.primeExecCache(cpu); xc == nil {
			return 0, nil, false
		}
	}
	win, access := xc.ctx.Windows()
	if binary.LittleEndian.Uint16(win[process.CtxOffResume:]) != 0 {
		// A woken receiver's pending resume action, applied as the slow
		// prologue applies it, through copies of the pinned views: a
		// refusal latches the copies and leaves the binding's windows.
		pv, c := process.Proc{View: xc.pv}, process.Ctx{View: xc.ctx}
		if resume(&pv, &c); c.Fault() != nil {
			return 0, c.Fault(), true
		}
	}
	ip0 := winIP(win)
	if ip0 >= uint32(len(xc.prog)) {
		return 0, nil, false
	}

	room := ^uint64(0)
	if s.Trace != nil {
		room = 1
	} else if s.inj != nil {
		// execOne's prologue already consulted the injector for this
		// entry, so at least one instruction is owed.
		if next := s.inj.NextAt(); next != ^uint64(0) {
			room = next - s.instructions
		}
	}
	budget := int64(limit)
	if limit > math.MaxInt64 {
		budget = math.MaxInt64
	}
	sur := int64(s.surcharge())
	alu, br, move := int64(vtime.CostALU)+sur, int64(vtime.CostBranch)+sur, int64(vtime.CostMove)+sur
	rf := (*regFile)(win[process.CtxOffRegs:])
	ar := (*aregFile)(access[process.CtxSlotA0*obj.ADSlotSize:])
	ip, left, n := ip0, budget, uint64(0)
	for {
		var k uint64
		ip, left, k = xc.runRegs(rf, ar, ip, left, alu, br, move, room-n)
		if n += k; left <= 0 || n >= room || ip >= uint32(len(xc.ops)) {
			break
		}
		op := xc.ops[ip]
		if op.kind != kLoad && op.kind != kStore {
			break
		}
		// runRegs stopped at a load or store. The IP is deferred, and the
		// reference writes it before the operand access: an operand naming
		// the running context would see the difference, so it is refused
		// like any other guard, and never memoised.
		word := aregWord(ar, op.b)
		if obj.Index(word) == xc.ctx.AD().Index {
			break
		}
		way := uint32(word) % resolveWays
		if word != 0 && word == xc.key[way] {
			// A hit the view refused: the canonical path raises the fault
			// itself, and the way is emptied with its key.
			xc.res[way], xc.key[way] = obj.View{}, 0
			break
		}
		// A miss, filled for runRegs to retire. The table refuses an
		// invalid, dangling or swapped-out operand without building the
		// fault, which the canonical path will raise itself; a refusal
		// leaves the way as it was.
		if !s.Table.Fill(obj.DecodeAD(word), 0, &xc.res[way]) {
			break
		}
		xc.key[way] = word
	}

	var spent vtime.Cycles
	if n > 0 {
		setWinIP(win, ip)
		cpu.Instructions += n
		s.instructions += n
		spent = vtime.Cycles(budget - left)
		cpu.Clock.Charge(spent)
		if s.Trace != nil {
			s.Trace(cpu.ID, xc.proc, TraceEvent{IP: ip0, Instr: xc.prog[ip0], Cost: spent})
		}
		if left <= 0 || n >= room || ip >= uint32(len(xc.prog)) {
			return spent, nil, true
		}
		// The loop stopped at an instruction it does not retire, with
		// cycles and room left: the reference executes that one next, and
		// so does this call.
		ip0 = ip
	}
	// Everything else — communication, calls, capability moves,
	// creation, termination, and whatever a guard above refused —
	// runs the canonical implementation after a fast fetch that
	// replicates the slow prologue's writes.
	in := xc.prog[ip0]
	setWinIP(win, ip0+1)
	cpu.Instructions++
	s.instructions++
	// A copy of the pinned view, which the instruction's refusal may
	// latch.
	c := process.Ctx{View: xc.ctx}
	cost, f := s.execInstr(cpu, xc.proc, &c, in)
	return spent + s.execFinish(cpu, xc.proc, ip0, in, cost, f), f, true
}

// ExecCacheAudit describes one execution-cache binding for the invariant
// auditor (internal/audit). Only current-generation caches are reported — a
// stale cache is not an invariant violation, just a pending re-prime.
type ExecCacheAudit struct {
	CPU      int
	Proc     obj.AD
	Ctx      obj.AD
	Problems []string
}

// AuditExecCaches cross-checks every current-generation execution cache
// against the object table, bound just now or not: a process that comes back
// to the processor it last ran on runs from the binding as it stands. The
// process view must be what resolving the process yields now
// (Table.Current), the cached context still its current context and its
// view what resolving that yields, the program and its
// predecoded table what a fresh derivation through the domain yields, and
// every operand view what resolving its AD yields, keyed by that AD's word
// and never the running context. It returns one record per CPU whose cache
// is current; records with non-empty Problems are invariant violations.
func (s *System) AuditExecCaches() []ExecCacheAudit {
	var out []ExecCacheAudit
	for _, cpu := range s.CPUs {
		xc := &cpu.xc
		if xc.gen != s.Table.CacheGen() || !xc.proc.Valid() {
			continue // stale or never primed: re-primed before next use
		}
		ctx := xc.ctx.AD()
		rec := ExecCacheAudit{CPU: cpu.ID, Proc: xc.proc, Ctx: ctx}
		bad := func(format string, args ...any) {
			rec.Problems = append(rec.Problems, obj.Faultf(obj.FaultOddity, ctx, format, args...).Error())
		}
		cur, f := s.Procs.Context(xc.proc)
		if f != nil {
			bad("cached process lost its context: %v", f)
		} else if cur != ctx {
			bad("cached context %v is not the current context %v", ctx, cur)
		}
		if !s.Table.Current(&xc.ctx) {
			bad("cached context windows do not match the descriptor extents")
		}
		if xc.pv.AD() != xc.proc || !s.Table.Current(&xc.pv) {
			bad("cached process view is not what %v resolves to", xc.proc)
		}
		if dom, f := s.Table.LoadAD(ctx, process.CtxSlotDomain); f != nil || dom != xc.dom {
			bad("cached domain %v is not the context's domain slot", xc.dom)
		}
		// A live cache must execute exactly the code a slow-path re-prime
		// would fetch: compare content, whichever decode produced the
		// slices.
		if code, dec, f := s.fetch(xc.dom, false); code != xc.code {
			bad("cached code object %v is not the domain's code slot", xc.code)
		} else if f != nil || !slices.Equal(dec.prog, xc.prog) {
			bad("cached decoded program diverges from the code object")
		} else if !slices.Equal(predecode(dec.prog), xc.ops) {
			bad("cached predecoded table diverges from the decoded program")
		}
		for way := range xc.res {
			v := &xc.res[way]
			if v.AD().Valid() && !s.Table.Current(v) {
				bad("operand way %d is not what %v resolves to", way, v.AD())
			}
			if k := xc.key[way]; k != 0 && obj.DecodeAD(k) != v.AD() {
				bad("operand way %d is keyed %#x, not by its view's %v", way, k, v.AD())
			}
			if v.AD().Valid() && v.AD().Index == ctx.Index {
				bad("operand way %d holds the running context", way)
			}
		}
		out = append(out, rec)
	}
	return out
}
