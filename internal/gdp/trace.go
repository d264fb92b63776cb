package gdp

// The profile-guided trace compiler: the next interpreter level above the
// execution cache (xcache.go). The cached fast path removed capability
// resolution but still pays, per instruction, one execOne call, the cache
// validity checks, an IP read, a program fetch, the op switch, and an IP
// write. Hot code is loops, and loops make all of that redundant: the
// program bytes cannot change under a live cache (that is the §5
// invalidation rule the cache already rests on), so a hot region can be
// fused once into superinstructions — closures specialised at compile time
// on register numbers and immediates, executing over the cache's pinned
// mem.Window — and then re-entered for thousands of iterations.
//
// Selection is per code object: every taken backward branch on the cached
// fast path counts its target as a candidate head; at traceHotThreshold
// the region starting there is compiled. A region extends over exactly the
// xcache fast-op set (ALU, register moves, branches, data-part load/store
// — the ops that emit no kernel trace events and mutate only data-part
// bytes) and closes at the first non-fusible op, an unconditional branch,
// or traceMaxOps fused instructions. A maximal run of pure register ops
// plus an optional trailing branch becomes ONE superinstruction (a μop
// array interpreted without per-instruction dispatch, IP traffic, or
// bounds checks — the register file is a *[CtxDataBytes]byte, so every
// access compiles to a constant-offset move); loads and stores stay
// singleton ops because they revalidate their operand per execution and
// must deopt with instruction precision.
//
// Correctness is the fast path's argument, strengthened:
//
//   - A trace runs only from a live execution cache (generation and
//     process identity just checked), and no fused op can invalidate that
//     cache: fused ops never destroy, swap, move, or store ADs, so the
//     cache generation cannot change mid-trace and the pinned windows stay
//     exact for the whole run. The program is immutable per (descriptor
//     index, generation) — the discipline the domain decode cache keys on
//     — so trace tables key identically and slot reuse can never revive a
//     stale trace.
//   - Check-then-mutate per fused op: a load/store validates its operand
//     (validity, rights, resolve, bounds) before any write; any failure
//     deopts — the runner writes the IP of the failed op and returns with
//     machine state exactly at the last completed instruction, and the
//     ordinary interpreter reproduces the canonical outcome, fault or not.
//   - The IP is written at region exit, not per op. The one case where a
//     fused op could observe the deferred IP — a load/store whose operand
//     resolves to the running context itself (the slow path writes IP
//     before the operand access, so such an access must see ip+1) — is a
//     deopt guard, and the interpreter's IP-first ordering takes over.
//   - The runner stops after the instruction that crosses the caller's
//     cycle limit (quantum budget and time-slice remainder, min'd by
//     stepVM) — the same "instructions are atomic" crossing the serial
//     loop produces — and before the instruction at which the fault
//     injector is due, so injections fire exactly on time. A
//     superinstruction is entered only when none of its non-final
//     instructions would cross either line; otherwise the runner stops at
//     the block boundary and the per-instruction interpreter walks the
//     crossing, so the boundary state is byte-identical either way. Cycle
//     accounting (per-op cost plus the bus-contention surcharge) and the
//     instruction counters are summed and charged in one lump that equals
//     the serial per-instruction total.
//   - The s.Trace instruction observer needs one event per instruction;
//     compiled runs are skipped entirely while an observer is installed
//     (machine bytes are identical either way — observation is the point
//     of that mode, not speed).

import (
	"encoding/binary"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
)

const (
	// traceHotThreshold is the number of taken backward branches to one
	// target that makes the region starting there worth compiling.
	traceHotThreshold = 64
	// traceMaxOps bounds a region's fused instruction count: long enough
	// to swallow any real loop body plus its exit run, small enough that
	// compilation stays cheap.
	traceMaxOps = 64
	// traceMinStraight is the minimum instruction count worth installing
	// for a region that never branches back to its head: a straight-line
	// region amortises the entry over its fused ops, so short ones are
	// not worth the table slot.
	traceMinStraight = 4
)

// regMask folds a register number into the context window's register file.
// Compile-time validation already bounds every fused register < NumDataRegs
// (a power of two); the mask exists so the compiler can prove the window
// access in-bounds and drop the check.
const regMask = isa.NumDataRegs - 1

// regWin is the register-file view of the context data window. The prime
// established len(win) >= CtxDataBytes, so the conversion cannot fail, and
// constant offsets into the array need no bounds checks.
type regWin = [process.CtxDataBytes]byte

func regGet(w *regWin, r uint8) uint32 {
	off := process.CtxOffRegs + uint32(r&regMask)*4
	return binary.LittleEndian.Uint32(w[off : off+4])
}

func regSet(w *regWin, r uint8, v uint32) {
	off := process.CtxOffRegs + uint32(r&regMask)*4
	binary.LittleEndian.PutUint32(w[off:off+4], v)
}

// traceOutcome is what one fused op tells the runner.
type traceOutcome uint8

const (
	tNext  traceOutcome = iota // fall through to the next fused op
	tLoop                      // taken branch back to the trace head
	tExit                      // taken branch out of the region (x.exit)
	tDeopt                     // guard failed: re-run this op in the interpreter
)

// xstate is the mutable state a fused op closure sees. One lives pooled on
// each CPU so a trace run allocates nothing; the runner re-initialises
// every field at entry.
type xstate struct {
	s    *System
	xc   *execCache
	win  []byte // context data window; IP is written only at exit
	exit uint32 // branch-out target, set by an op returning tExit
}

// microOp is one register instruction inside a superinstruction block,
// decoded once at compile time.
type microOp struct {
	k       uint8
	a, b, c uint8
	imm     uint32
}

const (
	uMovI = iota // w[a] = imm
	uMov         // w[a] = w[b]
	uAdd         // w[a] = w[b] + w[c]
	uSub         // w[a] = w[b] - w[c]
	uMul         // w[a] = w[b] * w[c]
	uAddI        // w[a] = w[b] + imm
	uNop
)

// Trailing-branch kinds of a superinstruction block.
const (
	tbNone = iota // fall off the block end
	tbAlways
	tbZ  // taken iff w[a] == 0
	tbNZ // taken iff w[a] != 0
	tbLT // taken iff w[a] < w[b]
)

// traceOp is one runner step: a superinstruction block or a singleton
// load/store. n is the instruction count it retires, cost the total cycle
// cost of all n, preCost the cost of the first n-1 (the block fit check:
// none of those may cross the limit), ip the first instruction's IP, and
// src the source instructions for the audit's content check.
//
// loop is the batched form of fn, present only on a block whose trailing
// branch targets the trace head: it executes up to m whole iterations of
// the block in one call — no per-iteration fit checks, no dispatch —
// stopping early the first time the tail falls through. The runner uses
// it when it can prove from the constant per-iteration cost that m whole
// iterations fit under both the cycle limit and the injection line, so
// the batch retires exactly the instructions the per-iteration path
// would have.
type traceOp struct {
	fn      func(x *xstate) traceOutcome
	loop    func(x *xstate, m int) (int, traceOutcome)
	ip      uint32
	n       uint32
	cost    vtime.Cycles
	preCost vtime.Cycles
	src     []isa.Instr
}

// codeTrace is one compiled region.
type codeTrace struct {
	head uint32
	ops  []traceOp
}

// codeTraces is the per-code-object trace table: back-edge heat and the
// compiled regions, keyed by head IP. A nil trace value records a region
// that was tried and rejected, so the compiler never retries it. gen is
// the code object's descriptor generation — the same immutability key the
// domain decode cache uses.
type codeTraces struct {
	gen    uint32
	hot    map[uint32]uint32
	traces map[uint32]*codeTrace
}

// tracesFor returns the live trace table for the given code object,
// creating or replacing it when absent or stale. Called from the prime
// path only, so the map traffic never lands on the fast path.
func (s *System) tracesFor(code obj.AD) *codeTraces {
	if s.trOff {
		return nil
	}
	if s.traceTabs == nil {
		s.traceTabs = make(map[obj.Index]*codeTraces)
	}
	ct := s.traceTabs[code.Index]
	if ct == nil || ct.gen != code.Gen {
		ct = &codeTraces{
			gen:    code.Gen,
			hot:    make(map[uint32]uint32),
			traces: make(map[uint32]*codeTrace),
		}
		s.traceTabs[code.Index] = ct
	}
	return ct
}

// noteBranch profiles one taken backward branch on the cached fast path.
// If the target already has a trace it arms the cache's one-shot entry
// point; otherwise it heats the target and compiles at the threshold.
func (xc *execCache) noteBranch(s *System, target uint32) {
	ct := xc.ct
	if ct == nil {
		return
	}
	if tr, tried := ct.traces[target]; tried {
		if tr != nil {
			xc.entry, xc.entryIP = tr, target
		}
		return
	}
	h := ct.hot[target] + 1
	if h < traceHotThreshold {
		ct.hot[target] = h
		return
	}
	delete(ct.hot, target)
	tr := compileTrace(xc.prog, target)
	ct.traces[target] = tr
	if tr != nil {
		s.trCompiled++
		for i := range tr.ops {
			s.trFused += uint64(tr.ops[i].n)
		}
		xc.entry, xc.entryIP = tr, target
	}
}

// runTrace executes the compiled region from its head (the caller
// established winIP == tr.head) until it branches out, runs off its end,
// crosses limit, reaches the next due injection, or deopts. It reports the
// cycles spent and whether any instruction completed; (0, false) means no
// instruction ran — state untouched — and the caller dispatches ip itself.
func (s *System) runTrace(cpu *CPU, xc *execCache, tr *codeTrace, limit vtime.Cycles) (vtime.Cycles, bool) {
	x := &cpu.xst
	x.s, x.xc, x.win = s, xc, xc.win
	x.exit = 0

	// The per-instruction epilogue's surcharge, hoisted: busyThisStep is
	// set once per Step and cannot change inside a quantum.
	var sur vtime.Cycles
	if s.contention > 0 && s.busyThisStep > 1 {
		sur = s.contention * vtime.Cycles(s.busyThisStep-1)
	}
	// Stop before the instruction at which the injector is due: execOne's
	// prologue already ran for this entry, so at least one instruction is
	// owed (the serial path would execute it before re-consulting).
	maxN := ^uint64(0)
	if s.inj != nil {
		if next := s.inj.NextAt(); next != ^uint64(0) {
			maxN = next - s.instructions
		}
	}
	ops := tr.ops
	var spent vtime.Cycles
	var n uint64
	i := 0
loop:
	for {
		op := &ops[i]
		if op.n > 1 {
			// Whole-block atomicity: the serial loop would stop inside
			// the block if any of its first n-1 instructions crossed the
			// limit, or the injector came due mid-block; stop at the
			// block boundary instead and let the per-instruction
			// interpreter walk the crossing — the boundary state is
			// identical either way.
			if spent+op.preCost+sur*vtime.Cycles(op.n-1) >= limit ||
				n+uint64(op.n) > maxN {
				if n == 0 {
					return 0, false
				}
				setWinIP(x.win, op.ip)
				s.trExits++
				break
			}
			// Batched self-loop: while this block's tail keeps jumping to
			// the head it re-executes ops[0] — itself. The per-iteration
			// cost c is a constant, so m whole iterations provably under
			// both lines (spent stays < limit, n < maxN: strict, so the
			// per-iteration pre- and post-checks hold for every batched
			// step) can run in one call with no checks at all.
			if i == 0 && op.loop != nil {
				c := op.cost + sur*vtime.Cycles(op.n)
				m := uint64(limit-spent-1) / uint64(c)
				if maxN != ^uint64(0) {
					if m2 := (maxN - n - 1) / uint64(op.n); m2 < m {
						m = m2
					}
				}
				if m > 1 {
					k, out := op.loop(x, int(m))
					n += uint64(k) * uint64(op.n)
					spent += vtime.Cycles(k) * c
					if out == tLoop {
						// Tail still taken at the batch cap: fall back to
						// the per-iteration path for the limit crossing.
						continue
					}
					i++
					if i == len(ops) {
						setWinIP(x.win, op.ip+op.n)
						s.trExits++
						break
					}
					continue
				}
			}
		}
		out := op.fn(x)
		if out == tDeopt {
			s.trDeopts++
			if n == 0 {
				return 0, false
			}
			setWinIP(x.win, op.ip)
			break
		}
		n += uint64(op.n)
		spent += op.cost + sur*vtime.Cycles(op.n)
		switch out {
		case tNext:
			i++
			if i == len(ops) {
				setWinIP(x.win, op.ip+op.n)
				s.trExits++
				break loop
			}
		case tLoop:
			i = 0
		case tExit:
			setWinIP(x.win, x.exit)
			s.trExits++
			break loop
		}
		if spent >= limit || n >= maxN {
			// Stopped on a fused boundary: the next instruction is
			// ops[i] (after tNext, i already advanced; after tLoop it
			// is the head again).
			setWinIP(x.win, ops[i].ip)
			s.trExits++
			break loop
		}
	}
	cpu.Instructions += n
	s.instructions += n
	s.trEntries++
	s.trInstrs += n
	cpu.Clock.Charge(spent)
	// Re-arm: if the landing IP heads another (or the same) trace, the
	// next fast instruction enters it without an interpreted back edge.
	if ct := xc.ct; ct != nil {
		ip := winIP(x.win)
		if nt := ct.traces[ip]; nt != nil {
			xc.entry, xc.entryIP = nt, ip
		} else {
			xc.entry = nil
		}
	}
	return spent, true
}

// compileTrace fuses the region starting at head, or returns nil when the
// region is not worth installing (too short without a back edge, or head
// out of bounds). Everything knowable at compile time — register numbers,
// immediates, branch shape, block costs — is checked here and baked into
// the closures; everything that can change at run time (operand
// capabilities, window bounds) is re-validated by the op on every
// execution, deopting on any surprise.
func compileTrace(prog []isa.Instr, head uint32) *codeTrace {
	if head >= uint32(len(prog)) {
		return nil
	}
	ops := make([]traceOp, 0, 8)
	closed := false // region contains a branch back to head
	done := false   // region ended (unconditional branch or non-fusible op)
	total := uint32(0)
	ip := head
	for !done && ip < uint32(len(prog)) && total < traceMaxOps {
		in := prog[ip]
		switch in.Op {
		case isa.OpLoad, isa.OpStore:
			op, ok := compileMemOp(prog, ip)
			if !ok {
				done = true
				break
			}
			ops = append(ops, op)
			total++
			ip++
		default:
			op, next, cl, ended := compileBlock(prog, ip, head, traceMaxOps-total)
			if op.n == 0 {
				done = true
				break
			}
			ops = append(ops, op)
			total += op.n
			ip = next
			closed = closed || cl
			done = done || ended
		}
	}
	if total == 0 || (!closed && total < traceMinStraight) {
		return nil
	}
	return &codeTrace{head: head, ops: ops}
}

// compileBlock fuses a maximal run of pure register instructions starting
// at ip, plus an optional trailing branch, into one superinstruction. It
// returns the op (n == 0 when the first instruction is not fusible here),
// the next IP, whether the block's branch closes the loop back to head,
// and whether the region is complete (unconditional branch or a
// non-fusible follower).
func compileBlock(prog []isa.Instr, ip, head, budget uint32) (traceOp, uint32, bool, bool) {
	var us []microOp
	start := ip
	var costBase vtime.Cycles
	tk := uint8(tbNone)
	var ta, tb uint8
	var tgt uint32
	tloop := false
	closes, ended := false, false

scan:
	for ip < uint32(len(prog)) && uint32(len(us)) < budget {
		in := prog[ip]
		u := microOp{a: in.A, b: in.B, c: uint8(in.C), imm: in.C}
		switch in.Op {
		case isa.OpNop:
			u.k = uNop
		case isa.OpMovI:
			if in.A >= isa.NumDataRegs {
				break scan
			}
			u.k = uMovI
		case isa.OpMov:
			if in.A >= isa.NumDataRegs || in.B >= isa.NumDataRegs {
				break scan
			}
			u.k = uMov
		case isa.OpAdd, isa.OpSub, isa.OpMul:
			if in.A >= isa.NumDataRegs || in.B >= isa.NumDataRegs ||
				uint8(in.C) >= isa.NumDataRegs {
				break scan
			}
			switch in.Op {
			case isa.OpAdd:
				u.k = uAdd
			case isa.OpSub:
				u.k = uSub
			default:
				u.k = uMul
			}
		case isa.OpAddI:
			if in.A >= isa.NumDataRegs || in.B >= isa.NumDataRegs {
				break scan
			}
			u.k = uAddI
		default:
			break scan
		}
		us = append(us, u)
		costBase += vtime.CostALU
		ip++
	}

	// Optional trailing branch, if the budget allows one more instruction.
	if ip < uint32(len(prog)) && uint32(len(us))+1 <= budget {
		in := prog[ip]
		takeBranch := false
		switch in.Op {
		case isa.OpBr:
			tk, takeBranch, ended = tbAlways, true, true
		case isa.OpBrZ:
			takeBranch = in.A < isa.NumDataRegs
			tk = tbZ
		case isa.OpBrNZ:
			takeBranch = in.A < isa.NumDataRegs
			tk = tbNZ
		case isa.OpBrLT:
			takeBranch = in.A < isa.NumDataRegs && in.B < isa.NumDataRegs
			tk = tbLT
		}
		if takeBranch {
			ta, tb, tgt = in.A, in.B, in.C
			tloop = tgt == head
			closes = tloop
			costBase += vtime.CostBranch
			ip++
		} else {
			tk = tbNone
			// The region continues only into a load/store (compiled as a
			// singleton by the caller); anything else — including a
			// branch with an invalid register — ends it here.
			if in.Op != isa.OpLoad && in.Op != isa.OpStore {
				ended = true
			}
		}
	} else if ip >= uint32(len(prog)) || !fusible(prog[ip].Op) {
		ended = true
	}

	n := uint32(len(us))
	if tk != tbNone {
		n++
	}
	if n == 0 {
		return traceOp{}, start, false, true
	}
	lastCost := vtime.CostALU
	if tk != tbNone {
		lastCost = vtime.CostBranch
	}
	us2 := us // closure capture without the append slack
	tk2, ta2, tb2, tgt2, tloop2 := tk, ta, tb, tgt, tloop
	fn := func(x *xstate) traceOutcome {
		w := (*regWin)(x.win)
		for j := range us2 {
			u := &us2[j]
			switch u.k {
			case uMovI:
				regSet(w, u.a, u.imm)
			case uMov:
				regSet(w, u.a, regGet(w, u.b))
			case uAdd:
				regSet(w, u.a, regGet(w, u.b)+regGet(w, u.c))
			case uSub:
				regSet(w, u.a, regGet(w, u.b)-regGet(w, u.c))
			case uMul:
				regSet(w, u.a, regGet(w, u.b)*regGet(w, u.c))
			case uAddI:
				regSet(w, u.a, regGet(w, u.b)+u.imm)
			}
		}
		var taken bool
		switch tk2 {
		case tbNone:
			return tNext
		case tbAlways:
			taken = true
		case tbZ:
			taken = regGet(w, ta2) == 0
		case tbNZ:
			taken = regGet(w, ta2) != 0
		case tbLT:
			taken = regGet(w, ta2) < regGet(w, tb2)
		}
		if !taken {
			return tNext
		}
		if tloop2 {
			return tLoop
		}
		x.exit = tgt2
		return tExit
	}
	// The batched runner for a self-loop block: m whole iterations in one
	// call, tail evaluated every time so an early fall-through is exact.
	// Only pure register μops run here — no guard can fail, so the batch
	// cannot deopt and state after k iterations equals k calls of fn.
	var loopFn func(x *xstate, m int) (int, traceOutcome)
	if tloop {
		loopFn = func(x *xstate, m int) (int, traceOutcome) {
			w := (*regWin)(x.win)
			for it := 0; it < m; it++ {
				for j := range us2 {
					u := &us2[j]
					switch u.k {
					case uMovI:
						regSet(w, u.a, u.imm)
					case uMov:
						regSet(w, u.a, regGet(w, u.b))
					case uAdd:
						regSet(w, u.a, regGet(w, u.b)+regGet(w, u.c))
					case uSub:
						regSet(w, u.a, regGet(w, u.b)-regGet(w, u.c))
					case uMul:
						regSet(w, u.a, regGet(w, u.b)*regGet(w, u.c))
					case uAddI:
						regSet(w, u.a, regGet(w, u.b)+u.imm)
					}
				}
				var taken bool
				switch tk2 {
				case tbAlways:
					taken = true
				case tbZ:
					taken = regGet(w, ta2) == 0
				case tbNZ:
					taken = regGet(w, ta2) != 0
				case tbLT:
					taken = regGet(w, ta2) < regGet(w, tb2)
				}
				if !taken {
					return it + 1, tNext
				}
			}
			return m, tLoop
		}
	}
	op := traceOp{
		fn:      fn,
		loop:    loopFn,
		ip:      start,
		n:       n,
		cost:    costBase,
		preCost: costBase - lastCost,
		src:     prog[start : start+n],
	}
	return op, ip, closes, ended
}

// fusible reports whether the trace compiler can fuse the op at all.
func fusible(op isa.Op) bool {
	switch op {
	case isa.OpNop, isa.OpMovI, isa.OpMov, isa.OpAdd, isa.OpSub, isa.OpMul,
		isa.OpAddI, isa.OpBr, isa.OpBrZ, isa.OpBrNZ, isa.OpBrLT,
		isa.OpLoad, isa.OpStore:
		return true
	}
	return false
}

// compileMemOp builds a singleton load/store op. Memory ops revalidate
// their operand capability on every execution and deopt with instruction
// precision, so they never join a block.
func compileMemOp(prog []isa.Instr, ip uint32) (traceOp, bool) {
	in := prog[ip]
	if in.A >= isa.NumDataRegs || in.B >= isa.NumAccessRegs {
		return traceOp{}, false
	}
	a, b, off := in.A, in.B, in.C
	var fn func(x *xstate) traceOutcome
	if in.Op == isa.OpLoad {
		fn = func(x *xstate) traceOutcome {
			ad := x.xc.areg(b)
			// The self-reference guard (ad names the running context)
			// covers both the deferred IP and register aliasing; the
			// interpreter's IP-first ordering is the canonical
			// behaviour there.
			if !ad.Valid() || !ad.Rights.Has(obj.RightRead) ||
				ad.Index == x.xc.ctx.Index {
				return tDeopt
			}
			src := x.xc.operand(x.s, ad)
			if src == nil || uint64(off)+4 > uint64(len(src.win)) {
				return tDeopt
			}
			setWinReg(x.win, a, binary.LittleEndian.Uint32(src.win[off:]))
			return tNext
		}
	} else {
		fn = func(x *xstate) traceOutcome {
			ad := x.xc.areg(b)
			if !ad.Valid() || !ad.Rights.Has(obj.RightWrite) ||
				ad.Index == x.xc.ctx.Index {
				return tDeopt
			}
			dst := x.xc.operand(x.s, ad)
			if dst == nil || uint64(off)+4 > uint64(len(dst.win)) {
				return tDeopt
			}
			binary.LittleEndian.PutUint32(dst.win[off:], winReg(x.win, a))
			return tNext
		}
	}
	return traceOp{
		fn:   fn,
		ip:   ip,
		n:    1,
		cost: vtime.CostMove,
		src:  prog[ip : ip+1],
	}, true
}

// TraceStats counts trace-compiler outcomes. Host-level diagnostics only:
// the numbers vary across corners by design and never enter a determinism
// fingerprint.
type TraceStats struct {
	Compiled     uint64 // regions compiled and installed
	FusedOps     uint64 // fused instructions across installed regions
	Entries      uint64 // runs that completed at least one instruction
	Instructions uint64 // instructions retired inside traces
	Deopts       uint64 // runs ended by a guard failure
	Exits        uint64 // runs ended normally (branch out, end, limit)
}

// TraceStats reports the trace compiler's counters; all zero when the
// compiler is disabled.
func (s *System) TraceStats() TraceStats {
	return TraceStats{
		Compiled:     s.trCompiled,
		FusedOps:     s.trFused,
		Entries:      s.trEntries,
		Instructions: s.trInstrs,
		Deopts:       s.trDeopts,
		Exits:        s.trExits,
	}
}
