package gdp

import (
	"repro/internal/domain"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Step advances every processor by at most quantum cycles of work and
// reports whether any processor did non-idle work. Processors run in a
// fixed order within a step, but because quanta are bounded and clocks are
// per-processor, all the interleavings that matter to the layers above
// (port races, collector/mutator overlap) actually occur. The fault Step
// returns is system damage (the damage latch): it is returned after the
// processor that met it, and by every Step after, which steps nothing.
func (s *System) Step(quantum vtime.Cycles) (bool, *obj.Fault) {
	if f := s.damage.Fault(); f != nil {
		return false, f
	}
	if s.contention > 0 {
		// Bus contention is computed per step round: processors that
		// are bound, plus idle ones that will draw from the dispatch
		// backlog, all arbitrate for the bus this round. (The driver
		// runs processors sequentially, so instantaneous "who else is
		// executing" is meaningless; the round population is the
		// faithful proxy.)
		busy := 0
		for _, cpu := range s.CPUs {
			if cpu.Online() && cpu.proc.Valid() {
				busy++
			}
		}
		if backlog, f := s.Ports.Count(s.Dispatch); f == nil {
			idle := 0
			for _, cpu := range s.CPUs {
				if cpu.Online() && !cpu.proc.Valid() {
					idle++
				}
			}
			if backlog < idle {
				idle = backlog
			}
			busy += idle
		}
		s.busyThisStep = busy
	}
	worked := false
	for _, cpu := range s.CPUs {
		worked = s.stepCPU(cpu, quantum) || worked
		if f := s.damage.Fault(); f != nil {
			return worked, f
		}
	}
	if len(s.timers) > 0 {
		s.fireTimers(s.Now())
	}
	return worked, s.damage.Fault()
}

// Run steps the system until no processor can find work or maxCycles of
// virtual time elapse. It reports the elapsed virtual time, which with a
// non-zero budget never exceeds maxCycles: the final quantum is clamped to
// what remains of the budget, and any instruction-granularity spill past
// the boundary is capped back.
func (s *System) Run(maxCycles vtime.Cycles) (vtime.Cycles, *obj.Fault) {
	return s.RunUntil(nil, maxCycles)
}

// RunUntil steps the system until pred reports true or maxCycles of
// virtual time elapse. Use it instead of Run when the configuration
// includes perpetual daemons (a polling fault handler, the collector):
// such systems are never idle, so "run to idle" never returns. A nil pred
// is Run: the loop ends when a step finds no work and no timer is armed,
// and while timers are armed idle time passes to the earliest expiry. A
// non-zero budget bounds the reported elapsed time exactly.
func (s *System) RunUntil(pred func() bool, maxCycles vtime.Cycles) (vtime.Cycles, *obj.Fault) {
	start := s.Now()
	const quantum = 5_000
	limit := start + maxCycles
	for pred == nil || !pred() {
		q := vtime.Cycles(quantum)
		if maxCycles > 0 {
			if rem := limit - s.Now(); rem < q {
				q = rem
			}
		}
		worked, f := s.Step(q)
		if maxCycles > 0 {
			// Instructions are atomic, so the last one of a quantum can
			// carry a clock past the budget; pull it back to the line.
			for _, cpu := range s.CPUs {
				cpu.Clock.CapAt(limit)
			}
		}
		if f != nil {
			return s.Now() - start, f
		}
		if pred == nil && !worked {
			if len(s.timers) == 0 {
				break
			}
			// Nothing runnable but timers are armed: idle time passes,
			// on every processor alike, until the earliest expiry —
			// clocks converge on the post-idle instant even when some
			// were already past it.
			next := vtime.Max(s.NextTimer(), s.Now())
			if maxCycles > 0 && next > limit {
				next = limit
			}
			for _, cpu := range s.CPUs {
				if now := cpu.Clock.Now(); next > now {
					cpu.Clock.AdvanceTo(next)
					cpu.IdleCycles += next - now
				}
			}
			s.fireTimers(s.Now())
			if f := s.damage.Fault(); f != nil {
				return s.Now() - start, f
			}
		}
		if maxCycles > 0 && s.Now()-start >= maxCycles {
			what := "condition not reached"
			if pred == nil {
				what = "system still busy"
			}
			return s.Now() - start, obj.Faultf(obj.FaultTimeout, obj.NilAD, "%s after %v", what, maxCycles)
		}
	}
	return s.Now() - start, nil
}

// stepCPU advances one processor by at most quantum cycles and reports
// whether it did non-idle work.
func (s *System) stepCPU(cpu *CPU, quantum vtime.Cycles) bool {
	// An offline processor burns idle time only; its clock keeps pace
	// so system-wide time stays meaningful.
	if cpu.offline {
		cpu.Clock.Charge(quantum)
		cpu.IdleCycles += quantum
		return false
	}
	// A bound process the process manager has since stopped leaves the
	// processor here — the "next scheduling event" its stop waits for.
	if !cpu.Idle() {
		st, f := s.Procs.StateOf(cpu.proc)
		if f != nil || st != process.StateRunning {
			cpu.unbind(s)
		}
	}
	if cpu.Idle() && !cpu.tryDispatch(s) {
		// Idle processors burn real time too; keeping clocks advancing
		// together is what makes per-CPU time a fair utilisation
		// measure.
		cpu.Clock.Charge(quantum)
		cpu.IdleCycles += quantum
		return false
	}

	// Consumed-cycle accounting (§6.1 scheduler bookkeeping) happens at
	// step granularity so that even a never-preempted process shows its
	// consumption.
	proc := cpu.proc
	before := cpu.Clock.Now()
	if body, native := s.bodies.Get(proc.Index); native {
		s.stepNative(cpu, body)
	} else {
		s.stepVM(cpu, quantum)
	}
	if spent := cpu.Clock.Now() - before; spent > 0 {
		// The process may have terminated and been collected within
		// the step; uncredited cycles then vanish with it.
		var pv process.Proc
		s.Procs.Open(proc, obj.RightRead, &pv)
		pv.AddCPUCycles(uint32(spent))
	}
	return true
}

// stepNative runs one bounded chunk of a native process body. A fault the
// body returns is the process's own and is delivered; a status the body
// cannot return is system damage.
func (s *System) stepNative(cpu *CPU, body NativeBody) {
	proc := cpu.proc
	spent, status, f := body.Step(s, proc)
	cpu.Clock.Charge(spent)
	if f != nil {
		s.deliverFault(cpu, proc, f)
		return
	}
	switch status {
	case BodyContinue:
		// Keep running until the quantum model preempts it like any
		// process: requeue if it has a finite slice, otherwise stay
		// bound.
		if cpu.sliceLeft > 0 {
			if spent >= cpu.sliceLeft {
				s.requeue(cpu, proc, true)
				return
			}
			cpu.sliceLeft -= spent
		}
	case BodyYield:
		s.requeue(cpu, proc, false)
	case BodyWaiting:
		s.block(cpu, proc)
	case BodyDone:
		s.terminate(cpu, proc)
	default:
		s.damage.Keep(obj.Faultf(obj.FaultOddity, proc, "native body returned status %d", status))
	}
}

// stepVM executes instructions of the bound process until the quantum is
// consumed, the process leaves the processor, or the damage latch is set.
func (s *System) stepVM(cpu *CPU, quantum vtime.Cycles) {
	budget := quantum
	for budget > 0 && cpu.proc.Valid() && s.damage.Fault() == nil {
		// The cycle allowance for this call: the cached run loop may retire
		// many instructions in one execOne and must stop after the
		// instruction that crosses the quantum budget or the time slice —
		// the same crossing this loop detects per instruction.
		limit := budget
		if cpu.sliceLeft > 0 && cpu.sliceLeft < limit {
			limit = cpu.sliceLeft
		}
		spent, f := s.execOne(cpu, limit)
		if f != nil {
			s.deliverFault(cpu, cpu.proc, f)
			return
		}
		if spent > budget {
			spent = budget
		}
		budget -= spent
		if cpu.sliceLeft > 0 && cpu.proc.Valid() {
			if spent >= cpu.sliceLeft {
				s.requeue(cpu, cpu.proc, true)
				return
			}
			cpu.sliceLeft -= spent
		}
	}
}

// requeue takes the bound process off the processor and back to the
// dispatch mix. A preempted one — its time slice ended (§5: "such events
// as time-slice end") — is counted and logged first.
func (s *System) requeue(cpu *CPU, proc obj.AD, preempted bool) {
	if preempted {
		s.preemptions++
		if l := s.Table.Tracer(); l != nil {
			l.Emit(trace.EvPreempt, uint32(proc.Index), uint32(cpu.ID), 0)
		}
	}
	cpu.unbind(s)
	s.MakeReady(proc)
}

// block takes the bound process off the processor to wait at a port.
func (s *System) block(cpu *CPU, proc obj.AD) {
	s.damage.Keep(s.Procs.SetState(proc, process.StateBlocked))
	cpu.unbind(s)
}

// execOne fetches, decodes and executes at least one instruction of the
// bound process, charging its cost to the processor clock. A returned
// fault is the process's, not the system's. The cached fast path
// (xcache.go) runs whenever the per-CPU execution cache is current;
// anything it cannot prove safe falls through — with machine state
// untouched — to the slow path, which re-derives the full resolution
// chain. One call of the fast path retires a whole run of register,
// branch and load/store instructions, stopping after the instruction that
// crosses limit — the caller's remaining cycle allowance — exactly where
// a per-instruction loop would have stopped.
func (s *System) execOne(cpu *CPU, limit vtime.Cycles) (vtime.Cycles, *obj.Fault) {
	if s.inj != nil && s.instructions >= s.inj.NextAt() {
		// Fault injection fires between instructions: the due event acts
		// on the machine before the next instruction executes, and a
		// returned fault takes the ordinary deliverFault path against the
		// process bound here.
		if f := s.inj.Fire(s, cpu); f != nil {
			return 0, f
		}
		if !cpu.proc.Valid() {
			// The injection unbound this processor (offline event); the
			// stepVM loop condition ends the quantum.
			return 0, nil
		}
	}
	if spent, f, ok := s.execOneFast(cpu, limit); ok {
		return spent, f
	}
	return s.execOneSlow(cpu)
}

// execOneSlow is the uncached reference interpreter: the bound process and
// its context are opened afresh for every instruction, and every access is
// bounds- and rights-checked through obj. The fast path defines itself
// against this — whatever it does must be byte-identical to what
// execOneSlow would have done.
func (s *System) execOneSlow(cpu *CPU) (vtime.Cycles, *obj.Fault) {
	proc := cpu.proc
	var pv process.Proc
	s.Procs.Open(proc, obj.RightRead, &pv)
	ctx := pv.LoadAD(process.SlotContext)
	if f := pv.Fault(); f != nil {
		return 0, f
	}
	if !ctx.Valid() {
		return 0, obj.Faultf(obj.FaultOddity, proc, "running process has no context")
	}

	// Apply any pending resume action (message carried to a woken
	// receiver). Its accesses alternate between the two views, so the
	// fault is handed over at each crossing.
	var c process.Ctx
	s.Procs.OpenContext(ctx, obj.RightRead, &c)
	if action := c.Resume(); action&0xFF == process.ResumeRecv {
		carry := pv.LoadAD(process.SlotCarry)
		c.Latch(pv.Fault())
		c.SetAReg(uint8(action>>8), carry)
		pv.Latch(c.Fault())
		pv.StoreADSystem(process.SlotCarry, obj.NilAD)
		c.Latch(pv.Fault())
	}

	dom := c.LoadAD(process.CtxSlotDomain)
	if f := c.Fault(); f != nil {
		return 0, f
	}
	code, f := s.Domains.Code(dom)
	if f != nil {
		return 0, f
	}
	prog, f := s.Domains.Program(code)
	if f != nil {
		return 0, f
	}
	ip := c.IP()
	if ip >= uint32(len(prog)) {
		c.Latch(obj.Faultf(obj.FaultBounds, ctx, "IP %d outside program of %d", ip, len(prog)))
	}
	c.SetIP(ip + 1)
	if f := c.Fault(); f != nil {
		return 0, f
	}
	in := prog[ip]
	cpu.Instructions++
	s.instructions++

	spent, f := s.execInstr(cpu, proc, ctx, in)
	return s.execFinish(cpu, proc, ip, in, spent, f), f
}

// execFinish is the shared per-instruction epilogue of both interpreter
// paths: bus-contention surcharge, clock charge, and the Trace callback.
// Keeping it in one place is what keeps the two paths cycle-identical.
func (s *System) execFinish(cpu *CPU, proc obj.AD, ip uint32, in isa.Instr, spent vtime.Cycles, f *obj.Fault) vtime.Cycles {
	spent += s.surcharge()
	cpu.Clock.Charge(spent)
	if s.Trace != nil {
		s.Trace(cpu.ID, proc, TraceEvent{IP: ip, Instr: in, Cost: spent, Fault: f})
	}
	return spent
}

// TraceEvent describes one executed instruction to a Trace observer.
type TraceEvent struct {
	IP    uint32
	Instr isa.Instr
	Cost  vtime.Cycles
	Fault *obj.Fault
}

// execInstr executes one fetched instruction as one operation on the
// running context, opened once. Each case reads its registers, reads the
// view's fault before any effect outside it — another object's access, an
// allocation, a port or type manager operation, a call — and writes its
// results last, so a register that does not exist is the view's bounds
// fault and stops the instruction where the first refusal stops it.
func (s *System) execInstr(cpu *CPU, proc, ctx obj.AD, in isa.Instr) (vtime.Cycles, *obj.Fault) {
	var c process.Ctx
	s.Procs.OpenContext(ctx, obj.RightRead, &c)
	switch in.Op {
	case isa.OpNop:
		return vtime.CostALU, nil

	case isa.OpHalt:
		s.terminate(cpu, proc)
		return vtime.CostALU, nil

	case isa.OpMovI:
		c.SetReg(in.A, in.C)
		return vtime.CostALU, c.Fault()

	case isa.OpMov:
		c.SetReg(in.A, c.Reg(in.B))
		return vtime.CostALU, c.Fault()

	case isa.OpAdd, isa.OpSub, isa.OpMul:
		b, x := c.Reg(in.B), c.Reg(uint8(in.C))
		switch in.Op {
		case isa.OpAdd:
			c.SetReg(in.A, b+x)
		case isa.OpSub:
			c.SetReg(in.A, b-x)
		case isa.OpMul:
			c.SetReg(in.A, b*x)
		}
		return vtime.CostALU, c.Fault()

	case isa.OpAddI:
		c.SetReg(in.A, c.Reg(in.B)+in.C)
		return vtime.CostALU, c.Fault()

	case isa.OpBr:
		c.SetIP(in.C)
		return vtime.CostBranch, c.Fault()

	case isa.OpBrZ, isa.OpBrNZ:
		if (in.Op == isa.OpBrZ) == (c.Reg(in.A) == 0) {
			c.SetIP(in.C)
		}
		return vtime.CostBranch, c.Fault()

	case isa.OpBrLT:
		if c.Reg(in.A) < c.Reg(in.B) {
			c.SetIP(in.C)
		}
		return vtime.CostBranch, c.Fault()

	case isa.OpLoad:
		if ad := c.AReg(in.B); c.Fault() == nil {
			v, f := s.Table.ReadDWord(ad, in.C)
			c.Latch(f)
			c.SetReg(in.A, v)
		}
		return vtime.CostMove, c.Fault()

	case isa.OpStore:
		if ad, v := c.AReg(in.B), c.Reg(in.A); c.Fault() == nil {
			c.Latch(s.Table.WriteDWord(ad, in.C, v))
		}
		return vtime.CostMove, c.Fault()

	case isa.OpLoadA:
		if src := c.AReg(in.B); c.Fault() == nil {
			ad, f := s.Table.LoadAD(src, in.C)
			c.Latch(f)
			c.SetAReg(in.A, ad)
		}
		return vtime.CostMoveAD, c.Fault()

	case isa.OpStoreA:
		// The user-visible AD store: level rule and gray bit apply.
		if dst, ad := c.AReg(in.B), c.AReg(in.A); c.Fault() == nil {
			c.Latch(s.Table.StoreAD(dst, in.C, ad))
		}
		return vtime.CostMoveAD, c.Fault()

	case isa.OpMovA:
		c.SetAReg(in.A, c.AReg(in.B))
		return vtime.CostMoveAD, c.Fault()

	case isa.OpCreate:
		heap, size, slots := c.AReg(in.B), c.Reg(uint8(in.C)), c.Reg(uint8(in.C)+1)
		if c.Fault() == nil {
			ad, f := s.SROs.Create(heap, obj.CreateSpec{
				Type:        obj.TypeGeneric,
				DataLen:     size,
				AccessSlots: slots,
			})
			c.Latch(f)
			c.SetAReg(in.A, ad)
		}
		return vtime.CostCreateObject, c.Fault()

	case isa.OpSend, isa.OpCSend:
		return vtime.CostSend, s.execSend(cpu, proc, &c, in)

	case isa.OpRecv, isa.OpCRecv:
		return vtime.CostReceive, s.execRecv(cpu, proc, &c, in)

	case isa.OpCall:
		return s.execCall(proc, &c, c.AReg(in.B), in.C, true)

	case isa.OpCallLocal:
		return s.execCall(proc, &c, c.LoadAD(process.CtxSlotDomain), in.C, false)

	case isa.OpRet:
		s.execRet(cpu, proc, &c)
		return vtime.CostDomainReturn, nil

	case isa.OpTypeOf:
		if ad := c.AReg(in.B); c.Fault() == nil {
			typ, f := s.Table.TypeOf(ad)
			c.Latch(f)
			c.SetReg(in.A, uint32(typ))
		}
		return vtime.CostALU, c.Fault()

	case isa.OpAmplify:
		if inst, tdo := c.AReg(in.A), c.AReg(in.B); c.Fault() == nil {
			strong, f := s.TDOs.Amplify(tdo, inst, obj.Rights(in.C)&obj.RightsAll)
			c.Latch(f)
			c.SetAReg(in.A, strong)
		}
		return vtime.CostAmplify, c.Fault()

	case isa.OpIsType:
		if inst, tdo := c.AReg(in.B), c.AReg(uint8(in.C)); c.Fault() == nil {
			ok, f := s.TDOs.Is(tdo, inst)
			c.Latch(f)
			c.SetReg(in.A, bit(ok))
		}
		return vtime.CostAmplify, c.Fault()

	case isa.OpFault:
		return vtime.CostALU, obj.Faultf(obj.FaultCode(in.C), proc, "injected fault")
	}
	return vtime.CostALU, obj.Faultf(obj.FaultOddity, proc, "unimplemented op %v", in.Op)
}

// bit is a truth value as a data register holds it.
func bit(ok bool) uint32 {
	if ok {
		return 1
	}
	return 0
}

// execSend performs the send instruction on the running context c. The
// message is in access register A, the port in B, the key in data register
// C. For OpCSend, data register C instead receives the success flag and
// the key is 0.
func (s *System) execSend(cpu *CPU, proc obj.AD, c *process.Ctx, in isa.Instr) *obj.Fault {
	msg, prt := c.AReg(in.A), c.AReg(in.B)
	conditional := in.Op == isa.OpCSend
	var key uint32
	blockOn := proc
	if conditional {
		blockOn = obj.NilAD
	} else {
		key = c.Reg(uint8(in.C))
	}
	if f := c.Fault(); f != nil {
		return f
	}
	blocked, wake, f := s.Ports.Send(prt, msg, key, blockOn)
	switch {
	case f != nil:
		return f
	case conditional:
		c.SetReg(uint8(in.C), bit(!blocked))
	case blocked:
		s.block(cpu, proc)
	}
	if wake != nil {
		// A blocked receiver was handed the message directly.
		s.Wake(*wake)
	}
	return c.Fault()
}

// execRecv performs the receive instruction on the running context c:
// destination access register A, port in B. For OpCRecv, data register C
// receives the success flag.
func (s *System) execRecv(cpu *CPU, proc obj.AD, c *process.Ctx, in isa.Instr) *obj.Fault {
	prt := c.AReg(in.B)
	if f := c.Fault(); f != nil {
		return f
	}
	conditional := in.Op == isa.OpCRecv
	blockOn := proc
	if conditional {
		blockOn = obj.NilAD
	}
	msg, blocked, wake, f := s.Ports.Receive(prt, blockOn)
	switch {
	case f != nil:
		return f
	case conditional:
		if !blocked {
			c.SetAReg(in.A, msg)
		}
		c.SetReg(uint8(in.C), bit(!blocked))
	case blocked:
		// Record where the message must land when we are woken.
		c.SetResume(process.ResumeRecv | uint16(in.A)<<8)
		if f := c.Fault(); f != nil {
			return f
		}
		s.block(cpu, proc)
		return nil
	default:
		c.SetAReg(in.A, msg)
	}
	if wake != nil {
		// A parked sender's message was deposited; the sender just
		// becomes ready.
		s.Wake(*wake)
	}
	return c.Fault()
}

// execCall performs the inter- or intra-domain call instruction from the
// running context caller, whose view has read dom: a new context at
// depth+1, arguments copied from the caller's registers, control at the
// entry's IP. The protection switch is the cost difference §2 quantifies
// (65 µs versus an ordinary activation). The domain and the entry are
// checked before the frame is pushed, so a refused call leaves none; after
// the push a fault is the process's own: the push's storage refusal, a
// dangling AD among the arguments (the frame unwinds), or a native body's.
func (s *System) execCall(proc obj.AD, caller *process.Ctx, dom obj.AD, entry uint32, crossDomain bool) (vtime.Cycles, *obj.Fault) {
	cost := vtime.CostIntraCall
	if crossDomain {
		cost = vtime.CostDomainCall
	}
	if f := caller.Fault(); f != nil {
		return cost, f
	}
	if crossDomain && !dom.Rights.Has(domain.RightCall) {
		return cost, obj.Faultf(obj.FaultRights, dom, "need call right on domain")
	}
	ip, h, f := s.Domains.Entry(dom, entry)
	if f != nil {
		return cost, f
	}
	var to process.Ctx
	if f := s.Procs.PushContext(proc, dom, &to); f != nil {
		return cost, f
	}
	// Arguments: r0..r3 and a0..a3 copy across.
	for r := uint8(0); r < 4; r++ {
		to.SetReg(r, caller.Reg(r))
		if ad := caller.AReg(r); ad.Valid() {
			to.SetAReg(r, ad)
		}
	}
	to.SetIP(ip)
	if f := to.Fault(); f != nil {
		s.pop(proc)
		return cost, f
	}
	if h != nil {
		return s.execNativeCall(proc, caller.AD(), &to, h, entry, cost)
	}
	return cost, nil
}

// execNativeCall runs a native domain body to completion within the call
// instruction and performs the return sequence. To the caller it is
// indistinguishable from a VM domain (§4). callee is the new context, opened
// by the call for its arguments. The body's fault is delivered to the
// caller once the frame has unwound.
func (s *System) execNativeCall(proc, caller obj.AD, callee *process.Ctx, h domain.Handler, entry uint32, cost vtime.Cycles) (vtime.Cycles, *obj.Fault) {
	var clk vtime.Clock
	env := &domain.Env{
		Table: s.Table,
		Procs: s.Procs,
		Proc:  proc,
		Ctx:   callee.AD(),
		Clock: &clk,
	}
	hf := h(env, entry)
	cost += clk.Now() + vtime.CostDomainReturn
	if hf == nil {
		// Results: r0 and a0 copy back; then the frame unwinds.
		s.copyResults(callee, caller)
	}
	s.pop(proc)
	return cost, hf
}

// execRet returns from the running context c, copying r0/a0 to the
// caller; returning from the outermost context terminates the process.
// The pop is the instruction's last access of c. The frame was pushed by
// a checked call or spawn, so a refusal of the copy or the pop is system
// damage, never the process's fault.
func (s *System) execRet(cpu *CPU, proc obj.AD, c *process.Ctx) {
	caller := c.LoadAD(process.CtxSlotCaller)
	if caller.Valid() {
		s.copyResults(c, caller)
	}
	s.pop(proc)
	if !caller.Valid() {
		s.terminate(cpu, proc)
	}
}

// copyResults copies r0 and a0 of the returning context from into caller.
// Both frames are the process's own, checked when they were pushed: a
// refusal is system damage.
func (s *System) copyResults(from *process.Ctx, caller obj.AD) {
	v, ad := from.Reg(0), from.AReg(0)
	var to process.Ctx
	s.Procs.OpenContext(caller, obj.RightWrite, &to)
	to.Latch(from.Fault())
	to.SetReg(0, v)
	if ad.Valid() {
		to.SetAReg(0, ad)
	}
	s.damage.Keep(to.Fault())
}

// pop unwinds the process's current frame, which a checked call or spawn
// pushed: a refusal is system damage.
func (s *System) pop(proc obj.AD) {
	_, f := s.Procs.PopContext(proc)
	s.damage.Keep(f)
}

// terminate ends the bound process: state change, scheduler notification,
// and release of the processor. The process view's refusal is latched.
func (s *System) terminate(cpu *CPU, proc obj.AD) {
	var pv process.Proc
	s.Procs.Open(proc, obj.RightWrite, &pv)
	pv.SetState(process.StateTerminated)
	pv.Emit(trace.EvTerminate, 0, 0)
	s.damage.Keep(pv.Fault())
	s.notifyScheduler(proc)
	cpu.unbind(s)
}

// deliverFault implements "sending them back to software": the faulting
// process is recorded, unbound, and sent as a message to its fault port.
// A process with no fault port just terminates with the code recorded —
// and per §7.3 the system levels configuration decides which processes are
// allowed to reach here at all. The cause is the process's; what delivery
// itself meets — a process view that refuses, a wakeup of the fault
// handler that cannot complete — is system damage, latched.
func (s *System) deliverFault(cpu *CPU, proc obj.AD, cause *obj.Fault) {
	cpu.Clock.Charge(vtime.CostFault)
	if l := s.Table.Tracer(); l != nil {
		l.Emit(trace.EvFault, uint32(proc.Index), uint32(cause.Code), uint64(cause.AD.Index))
	}
	var pv process.Proc
	s.Procs.Open(proc, obj.RightWrite, &pv)
	pv.SetFault(cause.Code, cause.AD.Index)
	// A segment fault is transparent to the process (§7.3: user-level
	// processes are unaware a segment might be temporarily inaccessible):
	// rewind the instruction so it re-executes after the memory manager
	// restores residency. Port and register state is untouched because
	// the access check precedes every side effect. A process with no
	// context to rewind is left as it is.
	if cause.Code == obj.FaultSegmentMoved {
		var cv process.Ctx
		s.Procs.OpenContext(pv.LoadAD(process.SlotContext), obj.RightRead, &cv)
		if ip := cv.IP(); ip > 0 {
			cv.SetIP(ip - 1)
			pv.Latch(cv.Fault())
		}
	}
	pv.SetState(process.StateFaulted)
	fport := pv.LoadAD(process.SlotFaultPort)
	if f := pv.Fault(); f != nil {
		s.damage.Keep(f)
		return
	}
	if cpu.proc == proc {
		cpu.unbind(s)
	}
	if fport.Valid() {
		if blocked, wake, f := s.Ports.Send(fport, proc, uint32(cause.Code), obj.NilAD); f == nil && !blocked {
			s.faultsSent++
			if wake != nil {
				s.Wake(*wake)
			}
			return
		}
	}
	// No fault port, or it is gone or full: the process is lost to
	// software; terminate it rather than wedge the processor.
	s.notifyScheduler(proc)
	pv.SetState(process.StateTerminated)
}

// notifyScheduler sends the process to its scheduler port, if it has one,
// so the process manager learns of termination (§6.1: a process is "sent
// to its process scheduler" when it would leave the dispatching mix).
func (s *System) notifyScheduler(proc obj.AD) {
	sport, f := s.Procs.Link(proc, process.SlotSchedPort)
	if f != nil || !sport.Valid() {
		return
	}
	_, wake, f := s.Ports.Send(sport, proc, 0, obj.NilAD)
	if f == nil && wake != nil {
		s.Wake(*wake)
	}
}

// Wake returns a process that a port operation unparked to the dispatch
// mix: the one wake step, for the send and receive instructions and for
// every agent that operates a port from outside the instruction stream. A
// woken receiver's message rides in the carry slot until the process next
// runs, when the resume action moves it into the destination register. A
// Wake that Send or Receive returned and nobody passed here is a lost
// process: it is off the wait queue and still StateBlocked. The port
// operation that unparked the process has succeeded, so Wake reports
// nothing to its caller: a carry slot that refuses the message or a
// MakeReady that cannot queue the process is system damage, latched for
// the next Step.
func (s *System) Wake(w port.Wake) {
	if w.Msg.Valid() {
		s.damage.Keep(s.Procs.SetLink(w.Process, process.SlotCarry, w.Msg))
	}
	s.MakeReady(w.Process)
}
