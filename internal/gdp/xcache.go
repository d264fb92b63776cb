package gdp

// The per-CPU execution cache: the simulation's stand-in for the on-chip
// state the real 432 microcode kept between instructions — the current
// context's register file, the instruction pointer, the decoded program of
// the current domain, and the most recently translated operand
// capabilities. The uncached interpreter re-derives all of this through
// 6–12 full capability resolutions per instruction; the cache pins it
// between scheduling events and re-derives only when something could have
// changed.
//
// Correctness rests on one rule: every operation that could alias cached
// state bumps obj.Table's cache generation (destruction, swap-out/in,
// compaction moves, AD stores into process or context objects — see
// Table.CacheGen). The fast path compares its generation snapshot on every
// instruction and falls back to the slow path on any mismatch; the slow
// path re-primes. Data-part writes never bump the generation and never
// need to: the cached windows are live views of physical memory
// (mem.Window), so ordinary data traffic is coherent by aliasing.
//
// The fast path must be byte-identical to the slow one. Two disciplines
// enforce that:
//
//   - check-then-mutate: every validation a fast op needs (register
//     bounds, operand resolution, rights, byte bounds) completes before the
//     first write; any failure returns "not handled" with the machine
//     untouched, and the slow path reproduces the canonical fault.
//   - fast ops are exactly the ops whose slow implementations emit no
//     kernel trace events and mutate only data-part bytes; everything else
//     goes through the unchanged execInstr after a fast fetch whose writes
//     (IP, instruction counters) replicate the slow prologue exactly.

import (
	"encoding/binary"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
)

// resolveWays sizes the direct-mapped operand resolve cache. Loads and
// stores in hot loops touch one or two objects; eight ways keeps the map
// trivial (index mod ways) while covering every a-reg twice over.
const resolveWays = 8

// resolveEntry caches one translated operand capability: the exact AD (the
// full value participates in the hit check, so rights and generation are
// part of the key) and a live window over its data part.
type resolveEntry struct {
	ad  obj.AD
	win []byte
}

// execCache is one processor's pinned execution state. It is valid only
// while gen equals the table's cache generation and proc equals the CPU's
// bound process; either mismatch sends the interpreter back to the slow
// path, which re-primes.
type execCache struct {
	gen  uint64 // obj.Table.CacheGen() snapshot at prime time
	proc obj.AD // process this cache was primed for
	ctx  obj.AD // its current context
	win  []byte // context data part: IP, resume word, register file
	awin []byte // context access part: linkage slots + access registers
	dom  obj.AD // current domain (CtxSlotDomain at prime time)
	code obj.AD // the domain's code object (prog was decoded from it)
	prog []isa.Instr
	res  [resolveWays]resolveEntry

	// Trace-compiler attachment (trace.go). ct is the code object's trace
	// table, attached at prime time; entry/entryIP are the one-shot entry
	// point armed by a taken backward branch (or a trace exit landing on
	// another head), checked with two compares on the fast path.
	ct      *codeTraces
	entry   *codeTrace
	entryIP uint32
}

// Window accessors over the context data part. Offsets are the context
// object's architectural layout (process.CtxOff*); the prime established
// len(win) >= process.CtxDataBytes, and callers bound r.
func winIP(win []byte) uint32 {
	return binary.LittleEndian.Uint32(win[process.CtxOffIP:])
}

func setWinIP(win []byte, ip uint32) {
	binary.LittleEndian.PutUint32(win[process.CtxOffIP:], ip)
}

func winReg(win []byte, r uint8) uint32 {
	return binary.LittleEndian.Uint32(win[process.CtxOffRegs+uint32(r)*4:])
}

func setWinReg(win []byte, r uint8, v uint32) {
	binary.LittleEndian.PutUint32(win[process.CtxOffRegs+uint32(r)*4:], v)
}

// primeExecCache performs the full slow-path resolution chain once —
// process, context, domain, code, program — snapshots the cache generation,
// and installs direct windows. It mutates nothing in the object world, so a
// nil return (anything at all out of the ordinary) simply leaves the slow
// path to run and produce the canonical behaviour.
func (s *System) primeExecCache(cpu *CPU) *execCache {
	if s.xcOff || !cpu.proc.Valid() {
		return nil
	}
	gen := s.Table.CacheGen()
	proc := cpu.proc
	// The slow prologue reaches the context via Context(proc) =
	// LoadAD(proc, SlotContext) with RightRead; mirror its demands.
	pd, f := s.Table.Resolve(proc)
	if f != nil || pd.Type != obj.TypeProcess || pd.SwappedOut ||
		!proc.Rights.Has(obj.RightRead) {
		return nil
	}
	ctx, f := s.Procs.Context(proc)
	if f != nil || !ctx.Valid() {
		return nil
	}
	// The per-instruction path reads the resume word and registers
	// (RightRead) and writes the IP and registers (RightWrite).
	cd, f := s.Table.Resolve(ctx)
	if f != nil || cd.Type != obj.TypeContext || cd.SwappedOut ||
		!ctx.Rights.Has(obj.RightRead|obj.RightWrite) {
		return nil
	}
	if cd.DataLen < process.CtxDataBytes ||
		cd.AccessSlots < process.CtxSlotA0+isa.NumAccessRegs {
		return nil
	}
	m := s.Table.Memory()
	win := m.Window(cd.Data)
	awin := m.Window(cd.Access)
	if len(win) < process.CtxDataBytes || awin == nil {
		return nil
	}
	dom, f := s.Table.LoadAD(ctx, process.CtxSlotDomain)
	if f != nil {
		return nil
	}
	code, f := s.Domains.Code(dom)
	if f != nil {
		return nil
	}
	prog, f := s.Domains.Program(code)
	if f != nil {
		return nil
	}
	xc := cpu.xc
	if xc == nil {
		xc = &execCache{}
		cpu.xc = xc
	}
	*xc = execCache{
		gen:  gen,
		proc: proc,
		ctx:  ctx,
		win:  win,
		awin: awin,
		dom:  dom,
		code: code,
		prog: prog,
		// The trace table rides the same immutability key as the decode
		// cache (descriptor index + generation), so a re-prime after any
		// invalidation re-attaches — or lazily rebuilds — the right one.
		ct: s.tracesFor(code),
	}
	return xc
}

// areg reads access register r from the cached access-part window — the
// same bytes LoadAD(ctx, CtxSlotA0+r) decodes, without the resolution.
func (xc *execCache) areg(r uint8) obj.AD {
	off := (process.CtxSlotA0 + uint32(r)) * obj.ADSlotSize
	return obj.DecodeAD(binary.LittleEndian.Uint64(xc.awin[off:]))
}

// operand translates ad through the direct-mapped resolve cache, returning
// the filled way: a live window over the object's data part. A miss
// performs the full resolution (validity, generation, presence) and fills
// the way; the table generation check in the caller guarantees every entry
// was filled under the current generation. Rights are not checked here —
// they ride in the cached AD value and the caller tests the bit it needs.
// nil means the fast path must not handle this operand.
func (xc *execCache) operand(s *System, ad obj.AD) *resolveEntry {
	e := &xc.res[uint32(ad.Index)%resolveWays]
	if e.ad == ad && e.win != nil {
		return e
	}
	d, f := s.Table.Resolve(ad)
	if f != nil || d.SwappedOut {
		return nil
	}
	win := s.Table.Memory().Window(d.Data)
	if win == nil {
		return nil
	}
	e.ad, e.win = ad, win
	return e
}

// execOneFast is the cached interpreter. It reports handled=false — with
// the machine state untouched — whenever anything falls outside the cached
// fast path: the cache is stale, a resume action is pending, the IP is out
// of bounds, an operand fails to translate, or rights/bounds would fault.
// The slow path then re-derives everything and produces the canonical
// outcome, fault or not. limit is the quantum's remaining cycle allowance
// (stepVM mins the budget and the time slice); only the trace runner uses
// it — a single interpreted instruction is atomic regardless.
func (s *System) execOneFast(cpu *CPU, limit vtime.Cycles) (vtime.Cycles, *obj.Fault, bool) {
	xc := cpu.xc
	if xc == nil || s.xcOff ||
		xc.gen != s.Table.CacheGen() || xc.proc != cpu.proc {
		if xc = s.primeExecCache(cpu); xc == nil {
			return 0, nil, false
		}
	}
	win := xc.win
	// A pending resume action (message carried to a woken receiver)
	// belongs to the slow prologue.
	if binary.LittleEndian.Uint16(win[process.CtxOffResume:]) != 0 {
		return 0, nil, false
	}
	ip := winIP(win)
	if ip >= uint32(len(xc.prog)) {
		return 0, nil, false
	}
	// Armed trace entry: a prior backward branch (or trace exit) named
	// this IP as a compiled head. A run that completes any instructions
	// has done all accounting itself; a first-op deopt falls through to
	// the ordinary dispatch below with state untouched. The s.Trace
	// observer needs one event per instruction, so compiled runs are
	// skipped entirely while one is installed (the machine bytes are
	// identical either way).
	if xc.entry != nil && ip == xc.entryIP && s.Trace == nil {
		if spent, ok := s.runTrace(cpu, xc, xc.entry, limit); ok {
			return spent, nil, true
		}
		xc.entry = nil
	}
	in := xc.prog[ip]

	// Per-op fast implementations. The slow path writes IP = ip+1 before
	// executing the instruction, so for self-referential loads/stores
	// (an a-reg naming the context itself) the IP write must precede the
	// operand access here too.
	var cost vtime.Cycles
	switch in.Op {
	case isa.OpNop:
		cost = vtime.CostALU
		setWinIP(win, ip+1)

	case isa.OpMovI:
		if in.A >= isa.NumDataRegs {
			return 0, nil, false
		}
		cost = vtime.CostALU
		setWinIP(win, ip+1)
		setWinReg(win, in.A, in.C)

	case isa.OpMov:
		if in.A >= isa.NumDataRegs || in.B >= isa.NumDataRegs {
			return 0, nil, false
		}
		cost = vtime.CostALU
		setWinIP(win, ip+1)
		setWinReg(win, in.A, winReg(win, in.B))

	case isa.OpAdd, isa.OpSub, isa.OpMul:
		rc := uint8(in.C)
		if in.A >= isa.NumDataRegs || in.B >= isa.NumDataRegs || rc >= isa.NumDataRegs {
			return 0, nil, false
		}
		cost = vtime.CostALU
		setWinIP(win, ip+1)
		b, c := winReg(win, in.B), winReg(win, rc)
		var v uint32
		switch in.Op {
		case isa.OpAdd:
			v = b + c
		case isa.OpSub:
			v = b - c
		case isa.OpMul:
			v = b * c
		}
		setWinReg(win, in.A, v)

	case isa.OpAddI:
		if in.A >= isa.NumDataRegs || in.B >= isa.NumDataRegs {
			return 0, nil, false
		}
		cost = vtime.CostALU
		setWinIP(win, ip+1)
		setWinReg(win, in.A, winReg(win, in.B)+in.C)

	case isa.OpBr:
		cost = vtime.CostBranch
		setWinIP(win, in.C)
		if in.C <= ip {
			// A taken backward branch is the trace compiler's profile
			// signal: its target is a loop head candidate.
			xc.noteBranch(s, in.C)
		}

	case isa.OpBrZ, isa.OpBrNZ:
		if in.A >= isa.NumDataRegs {
			return 0, nil, false
		}
		cost = vtime.CostBranch
		if (in.Op == isa.OpBrZ) == (winReg(win, in.A) == 0) {
			setWinIP(win, in.C)
			if in.C <= ip {
				xc.noteBranch(s, in.C)
			}
		} else {
			setWinIP(win, ip+1)
		}

	case isa.OpBrLT:
		if in.A >= isa.NumDataRegs || in.B >= isa.NumDataRegs {
			return 0, nil, false
		}
		cost = vtime.CostBranch
		if winReg(win, in.A) < winReg(win, in.B) {
			setWinIP(win, in.C)
			if in.C <= ip {
				xc.noteBranch(s, in.C)
			}
		} else {
			setWinIP(win, ip+1)
		}

	case isa.OpLoad:
		if in.A >= isa.NumDataRegs || in.B >= isa.NumAccessRegs {
			return 0, nil, false
		}
		ad := xc.areg(in.B)
		if !ad.Valid() || !ad.Rights.Has(obj.RightRead) {
			return 0, nil, false
		}
		src := xc.operand(s, ad)
		if src == nil || uint64(in.C)+4 > uint64(len(src.win)) {
			return 0, nil, false
		}
		cost = vtime.CostMove
		setWinIP(win, ip+1)
		setWinReg(win, in.A, binary.LittleEndian.Uint32(src.win[in.C:]))

	case isa.OpStore:
		if in.A >= isa.NumDataRegs || in.B >= isa.NumAccessRegs {
			return 0, nil, false
		}
		ad := xc.areg(in.B)
		if !ad.Valid() || !ad.Rights.Has(obj.RightWrite) {
			return 0, nil, false
		}
		dst := xc.operand(s, ad)
		if dst == nil || uint64(in.C)+4 > uint64(len(dst.win)) {
			return 0, nil, false
		}
		cost = vtime.CostMove
		setWinIP(win, ip+1)
		binary.LittleEndian.PutUint32(dst.win[in.C:], winReg(win, in.A))

	default:
		// Everything else — communication, calls, capability moves,
		// creation, termination — runs the canonical implementation
		// after a fast fetch that replicates the slow prologue's writes.
		setWinIP(win, ip+1)
		cpu.Instructions++
		s.instructions++
		spent, f := s.execInstr(cpu, xc.proc, xc.ctx, in)
		return s.execFinish(cpu, xc.proc, ip, in, spent, f), f, true
	}

	cpu.Instructions++
	s.instructions++
	return s.execFinish(cpu, xc.proc, ip, in, cost, nil), nil, true
}

// ExecCacheAudit describes one live execution-cache binding for the
// invariant auditor (internal/audit). Only current-generation caches are
// reported — a stale cache is not an invariant violation, just a pending
// re-prime.
type ExecCacheAudit struct {
	CPU      int
	Proc     obj.AD
	Ctx      obj.AD
	Problems []string
}

// AuditExecCaches cross-checks every live execution-cache entry against
// the object table: the cached context must still be the bound process's
// current context, the cached windows must be the table's own view of the
// context's extents, and every operand entry must still resolve to the
// window it caches. It returns one record per CPU whose cache is live;
// records with non-empty Problems are invariant violations.
func (s *System) AuditExecCaches() []ExecCacheAudit {
	var out []ExecCacheAudit
	gen := s.Table.CacheGen()
	m := s.Table.Memory()
	sameView := func(a, b []byte) bool {
		return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
	}
	// Content comparison, not pointer: what must agree is the instructions
	// the cache executes, whichever decode produced the slice.
	sameProg := func(a, b []isa.Instr) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, cpu := range s.CPUs {
		xc := cpu.xc
		if xc == nil || xc.gen != gen || xc.proc != cpu.proc || !xc.proc.Valid() {
			continue // stale or unbound: re-primed before next use
		}
		rec := ExecCacheAudit{CPU: cpu.ID, Proc: xc.proc, Ctx: xc.ctx}
		bad := func(format string, args ...any) {
			rec.Problems = append(rec.Problems, obj.Faultf(obj.FaultOddity, xc.ctx, format, args...).Error())
		}
		cur, f := s.Procs.Context(xc.proc)
		if f != nil {
			bad("cached process lost its context: %v", f)
		} else if cur != xc.ctx {
			bad("cached context %v is not the current context %v", xc.ctx, cur)
		}
		cd, f := s.Table.Resolve(xc.ctx)
		switch {
		case f != nil:
			bad("cached context no longer resolves: %v", f)
		case cd.Type != obj.TypeContext:
			bad("cached context has type %v", cd.Type)
		case cd.SwappedOut:
			bad("cached context is swapped out under a live cache")
		default:
			if !sameView(m.Window(cd.Data), xc.win) {
				bad("cached data window does not match the descriptor extent")
			}
			if !sameView(m.Window(cd.Access), xc.awin) {
				bad("cached access window does not match the descriptor extent")
			}
			if len(xc.win) < process.CtxDataBytes {
				bad("cached data window is %d bytes, need %d", len(xc.win), process.CtxDataBytes)
			}
		}
		if dom, f := s.Table.LoadAD(xc.ctx, process.CtxSlotDomain); f != nil || dom != xc.dom {
			bad("cached domain %v is not the context's domain slot", xc.dom)
		}
		// The decoded program must match a fresh derivation through the
		// domain: a live cache must execute exactly the code a slow-path
		// re-prime would fetch.
		if code, f := s.Domains.Code(xc.dom); f != nil || code != xc.code {
			bad("cached code object %v is not the domain's code slot", xc.code)
		} else if prog, f := s.Domains.Program(code); f != nil || !sameProg(prog, xc.prog) {
			bad("cached decoded program diverges from the code object")
		}
		for way, e := range xc.res {
			if e.win == nil {
				continue
			}
			d, f := s.Table.Resolve(e.ad)
			if f != nil || d.SwappedOut {
				bad("operand way %d caches a dead or absent object %v", way, e.ad)
				continue
			}
			if !sameView(m.Window(d.Data), e.win) {
				bad("operand way %d window does not match %v's extent", way, e.ad)
			}
		}
		// The attached trace table must carry the code object's identity
		// key, and every fused op must still mirror the decoded program a
		// slow-path re-derivation would fetch — a trace diverging from its
		// program would execute instructions the machine no longer holds.
		if ct := xc.ct; ct != nil {
			if ct.gen != xc.code.Gen {
				bad("trace table generation %d does not match code %v", ct.gen, xc.code)
			}
			for head, tr := range ct.traces {
				if tr == nil {
					continue // tried-and-rejected sentinel
				}
				if tr.head != head {
					bad("trace keyed at %d reports head %d", head, tr.head)
				}
			ops:
				for k := range tr.ops {
					op := &tr.ops[k]
					if uint64(op.ip)+uint64(op.n) > uint64(len(xc.prog)) ||
						op.n != uint32(len(op.src)) {
						bad("trace at %d: fused op %d overruns the decoded program", head, k)
						break
					}
					for j, in := range op.src {
						if xc.prog[op.ip+uint32(j)] != in {
							bad("trace at %d: fused op %d diverges from the decoded program", head, k)
							break ops
						}
					}
				}
			}
		}
		out = append(out, rec)
	}
	return out
}
