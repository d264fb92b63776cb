package gdp

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/vtime"
)

func newSystem(t *testing.T, cpus int) *System {
	t.Helper()
	s, err := New(Config{Processors: cpus})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustDomain(t *testing.T, s *System, prog []isa.Instr) obj.AD {
	t.Helper()
	code, f := s.Domains.CreateCode(s.Heap, prog)
	if f != nil {
		t.Fatal(f)
	}
	dom, f := s.Domains.Create(s.Heap, code, []uint32{0})
	if f != nil {
		t.Fatal(f)
	}
	return dom
}

func run(t *testing.T, s *System) vtime.Cycles {
	t.Helper()
	elapsed, f := s.Run(100_000_000)
	if f != nil {
		t.Fatalf("Run: %v", f)
	}
	return elapsed
}

func mustState(t *testing.T, s *System, p obj.AD, want process.State) {
	t.Helper()
	got, f := s.Procs.StateOf(p)
	if f != nil {
		t.Fatal(f)
	}
	if got != want {
		t.Fatalf("state = %v, want %v", got, want)
	}
}

func TestRunSimpleProgram(t *testing.T) {
	s := newSystem(t, 1)
	// Compute 6*7 into a result object.
	result, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	dom := mustDomain(t, s, []isa.Instr{
		isa.MovI(1, 6),
		isa.MovI(2, 7),
		isa.Mul(0, 1, 2),
		isa.Store(0, 0, 0), // a0 = result object
		isa.Halt(),
	})
	p, f := s.Spawn(dom, SpawnSpec{AArgs: [4]obj.AD{result}})
	if f != nil {
		t.Fatal(f)
	}
	run(t, s)
	mustState(t, s, p, process.StateTerminated)
	v, f := s.Table.ReadDWord(result, 0)
	if f != nil {
		t.Fatal(f)
	}
	if v != 42 {
		t.Fatalf("result = %d", v)
	}
}

func TestLoopAndBranches(t *testing.T) {
	s := newSystem(t, 1)
	result, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	// Sum 1..10 with a countdown loop.
	dom := mustDomain(t, s, []isa.Instr{
		isa.MovI(1, 10), // i = 10
		isa.MovI(0, 0),  // sum = 0
		isa.Add(0, 0, 1),
		isa.AddI(1, 1, ^uint32(0)), // i--
		isa.BrNZ(1, 2),
		isa.Store(0, 0, 0),
		isa.Halt(),
	})
	if _, f := s.Spawn(dom, SpawnSpec{AArgs: [4]obj.AD{result}}); f != nil {
		t.Fatal(f)
	}
	run(t, s)
	if v, _ := s.Table.ReadDWord(result, 0); v != 55 {
		t.Fatalf("sum = %d", v)
	}
}

func TestCreateInstruction(t *testing.T) {
	s := newSystem(t, 1)
	dir, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 2})
	dom := mustDomain(t, s, []isa.Instr{
		isa.MovI(2, 64),     // r2 = data bytes
		isa.MovI(3, 4),      // r3 = access slots
		isa.Create(1, 0, 2), // a1 ← create from SRO in a0
		isa.MovI(0, 7),
		isa.Store(0, 1, 0),  // write into the new object
		isa.StoreA(1, 2, 0), // publish it in the directory (a2)
		isa.Halt(),
	})
	live := s.Table.Live()
	if _, f := s.Spawn(dom, SpawnSpec{AArgs: [4]obj.AD{s.Heap, obj.NilAD, dir}}); f != nil {
		t.Fatal(f)
	}
	run(t, s)
	created, f := s.Table.LoadAD(dir, 0)
	if f != nil || !created.Valid() {
		t.Fatalf("created object not published: %v %v", created, f)
	}
	if v, _ := s.Table.ReadDWord(created, 0); v != 7 {
		t.Fatalf("created object contents = %d", v)
	}
	// Net new objects: the created one plus the (reclaimed) context is
	// gone, so live grew by at least 1 process + 1 object.
	if s.Table.Live() <= live {
		t.Fatal("no objects created")
	}
}

func TestDomainCallAndReturn(t *testing.T) {
	s := newSystem(t, 1)
	result, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	// Callee: r0 ← r1 + r2, return.
	calleeDom := mustDomain(t, s, []isa.Instr{
		isa.Add(0, 1, 2),
		isa.Ret(),
	})
	// Caller: call callee with r1=30, r2=12; store r0.
	callerDom := mustDomain(t, s, []isa.Instr{
		isa.MovI(1, 30),
		isa.MovI(2, 12),
		isa.Call(1, 0), // domain in a1
		isa.Store(0, 0, 0),
		isa.Halt(),
	})
	p, f := s.Spawn(callerDom, SpawnSpec{AArgs: [4]obj.AD{result, calleeDom}})
	if f != nil {
		t.Fatal(f)
	}
	run(t, s)
	mustState(t, s, p, process.StateTerminated)
	if v, _ := s.Table.ReadDWord(result, 0); v != 42 {
		t.Fatalf("call result = %d", v)
	}
}

func TestDomainCallRequiresRight(t *testing.T) {
	s := newSystem(t, 1)
	calleeDom := mustDomain(t, s, []isa.Instr{isa.Ret()})
	weak := calleeDom.Restrict(domain.RightCall)
	callerDom := mustDomain(t, s, []isa.Instr{
		isa.Call(1, 0),
		isa.Halt(),
	})
	p, f := s.Spawn(callerDom, SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, weak}})
	if f != nil {
		t.Fatal(f)
	}
	run(t, s)
	// No fault port: the process terminates with the code recorded.
	mustState(t, s, p, process.StateTerminated)
	if c, _ := s.Procs.FaultCode(p); c != obj.FaultRights {
		t.Fatalf("fault code = %v", c)
	}
}

func TestNativeDomainCallIndistinguishable(t *testing.T) {
	// §4: the caller cannot tell a native (OS) subprogram from a VM one.
	s := newSystem(t, 1)
	result, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	nat, f := s.Domains.CreateNative(s.Heap, 1, func(env *domain.Env, entry uint32) *obj.Fault {
		var c process.Ctx
		env.Procs.OpenContext(env.Ctx, obj.RightRead, &c)
		env.Clock.Charge(10)
		c.SetReg(0, c.Reg(1)+c.Reg(2))
		return c.Fault()
	})
	if f != nil {
		t.Fatal(f)
	}
	callerDom := mustDomain(t, s, []isa.Instr{
		isa.MovI(1, 40),
		isa.MovI(2, 2),
		isa.Call(1, 0),
		isa.Store(0, 0, 0),
		isa.Halt(),
	})
	if _, f := s.Spawn(callerDom, SpawnSpec{AArgs: [4]obj.AD{result, nat}}); f != nil {
		t.Fatal(f)
	}
	run(t, s)
	if v, _ := s.Table.ReadDWord(result, 0); v != 42 {
		t.Fatalf("native call result = %d", v)
	}
}

func TestSendReceiveBetweenProcesses(t *testing.T) {
	s := newSystem(t, 1)
	prt, f := s.Ports.Create(s.Heap, 2, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	payload, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f := s.Table.WriteDWord(payload, 0, 99); f != nil {
		t.Fatal(f)
	}
	out, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})

	// Receiver runs first and blocks on the empty port.
	recvDom := mustDomain(t, s, []isa.Instr{
		isa.Recv(1, 0),     // a1 ← receive from port (a0)
		isa.Load(0, 1, 0),  // r0 ← payload word
		isa.Store(0, 2, 0), // out (a2) ← r0
		isa.Halt(),
	})
	sendDom := mustDomain(t, s, []isa.Instr{
		isa.MovI(0, 0),
		isa.Send(1, 0, 0), // send a1 to port a0
		isa.Halt(),
	})
	rp, f := s.Spawn(recvDom, SpawnSpec{Priority: 10, AArgs: [4]obj.AD{prt, obj.NilAD, out}})
	if f != nil {
		t.Fatal(f)
	}
	sp, f := s.Spawn(sendDom, SpawnSpec{Priority: 1, AArgs: [4]obj.AD{prt, payload}})
	if f != nil {
		t.Fatal(f)
	}
	run(t, s)
	mustState(t, s, rp, process.StateTerminated)
	mustState(t, s, sp, process.StateTerminated)
	if v, _ := s.Table.ReadDWord(out, 0); v != 99 {
		t.Fatalf("relayed value = %d", v)
	}
}

func TestBlockedSenderBackpressure(t *testing.T) {
	s := newSystem(t, 1)
	prt, _ := s.Ports.Create(s.Heap, 1, port.FIFO)
	msg, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	out, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})

	// Sender: send twice to a capacity-1 port (second blocks), then
	// mark completion.
	sendDom := mustDomain(t, s, []isa.Instr{
		isa.MovI(0, 0),
		isa.Send(1, 0, 0),
		isa.Send(1, 0, 0), // blocks until receiver drains
		isa.MovI(0, 1),
		isa.Store(0, 2, 0), // out[0] = 1
		isa.Halt(),
	})
	// Receiver: receive twice, then mark.
	recvDom := mustDomain(t, s, []isa.Instr{
		isa.Recv(1, 0),
		isa.Recv(1, 0),
		isa.MovI(0, 1),
		isa.Store(0, 2, 4), // out[4] = 1
		isa.Halt(),
	})
	// Sender runs first (higher priority) so the second send blocks.
	sp, _ := s.Spawn(sendDom, SpawnSpec{Priority: 10, AArgs: [4]obj.AD{prt, msg, out}})
	rp, _ := s.Spawn(recvDom, SpawnSpec{Priority: 1, AArgs: [4]obj.AD{prt, obj.NilAD, out}})
	run(t, s)
	mustState(t, s, sp, process.StateTerminated)
	mustState(t, s, rp, process.StateTerminated)
	if v, _ := s.Table.ReadDWord(out, 0); v != 1 {
		t.Fatal("sender did not complete")
	}
	if v, _ := s.Table.ReadDWord(out, 4); v != 1 {
		t.Fatal("receiver did not complete")
	}
}

func TestTimeSlicePreemption(t *testing.T) {
	s := newSystem(t, 1)
	out, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
	// Two infinite-ish loops with small slices must interleave: each
	// writes a progress counter; both should advance.
	mk := func(off uint32) obj.AD {
		return mustDomain(t, s, []isa.Instr{
			isa.MovI(1, 4000), // iterations
			isa.MovI(0, 0),
			isa.AddI(0, 0, 1),
			isa.Store(0, 2, off),
			isa.AddI(1, 1, ^uint32(0)),
			isa.BrNZ(1, 2),
			isa.Halt(),
		})
	}
	a, _ := s.Spawn(mk(0), SpawnSpec{TimeSlice: 2000, AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, out}})
	b, _ := s.Spawn(mk(4), SpawnSpec{TimeSlice: 2000, AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, out}})
	// Step a little: both must have progressed despite one CPU.
	for i := 0; i < 40; i++ {
		if _, f := s.Step(3000); f != nil {
			t.Fatal(f)
		}
	}
	va, _ := s.Table.ReadDWord(out, 0)
	vb, _ := s.Table.ReadDWord(out, 4)
	if va == 0 || vb == 0 {
		t.Fatalf("no interleaving: a=%d b=%d", va, vb)
	}
	if s.Stats().Preemptions == 0 {
		t.Fatal("no preemptions recorded")
	}
	run(t, s)
	mustState(t, s, a, process.StateTerminated)
	mustState(t, s, b, process.StateTerminated)
}

func TestMultiprocessorTransparency(t *testing.T) {
	// §3: "the existence of multiple general data processors [is]
	// transparent to virtually all of the system software" — the same
	// program must produce the same answers on 1 and 4 processors.
	for _, cpus := range []int{1, 4} {
		s := newSystem(t, cpus)
		out, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64})
		for w := uint32(0); w < 8; w++ {
			dom := mustDomain(t, s, []isa.Instr{
				isa.MovI(1, 100),
				isa.MovI(0, 0),
				isa.Add(0, 0, 1),
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 2),
				isa.Store(0, 0, w*4),
				isa.Halt(),
			})
			if _, f := s.Spawn(dom, SpawnSpec{TimeSlice: 1000, AArgs: [4]obj.AD{out}}); f != nil {
				t.Fatal(f)
			}
		}
		run(t, s)
		for w := uint32(0); w < 8; w++ {
			if v, _ := s.Table.ReadDWord(out, w*4); v != 5050 {
				t.Fatalf("cpus=%d worker %d: %d", cpus, w, v)
			}
		}
	}
}

func TestFaultDeliveredToFaultPort(t *testing.T) {
	s := newSystem(t, 1)
	fport, _ := s.Ports.Create(s.Heap, 4, port.FIFO)
	dom := mustDomain(t, s, []isa.Instr{
		isa.FaultInject(uint32(obj.FaultOddity)),
		isa.Halt(),
	})
	p, f := s.Spawn(dom, SpawnSpec{FaultPort: fport})
	if f != nil {
		t.Fatal(f)
	}
	run(t, s)
	mustState(t, s, p, process.StateFaulted)
	// The faulting process itself is the message at the fault port.
	msg, blocked, _, f := s.Ports.Receive(fport, obj.NilAD)
	if f != nil || blocked {
		t.Fatalf("fault port empty: %v %v", blocked, f)
	}
	if msg.Index != p.Index {
		t.Fatal("wrong process delivered")
	}
	if c, _ := s.Procs.FaultCode(p); c != obj.FaultOddity {
		t.Fatalf("fault code = %v", c)
	}
	if s.Stats().FaultsSent != 1 {
		t.Fatalf("FaultsSent = %d", s.Stats().FaultsSent)
	}
}

func TestLevelViolationFaults(t *testing.T) {
	// A program that tries to store a short-lived capability into a
	// long-lived object faults with the level code — the §5 rule
	// enforced against real executing code.
	s := newSystem(t, 1)
	dir, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 2})
	local, f := s.SROs.NewLocalHeap(s.Heap, 4, 0)
	if f != nil {
		t.Fatal(f)
	}
	dom := mustDomain(t, s, []isa.Instr{
		isa.MovI(2, 16),
		isa.MovI(3, 0),
		isa.Create(1, 0, 2), // a1 ← create from the *local* SRO in a0
		isa.StoreA(1, 2, 0), // store into the global directory: faults
		isa.Halt(),
	})
	p, _ := s.Spawn(dom, SpawnSpec{AArgs: [4]obj.AD{local, obj.NilAD, dir}})
	run(t, s)
	if c, _ := s.Procs.FaultCode(p); c != obj.FaultLevel {
		t.Fatalf("fault code = %v, want level violation", c)
	}
}

func TestNativeProcessBody(t *testing.T) {
	s := newSystem(t, 1)
	ticks := 0
	body := NativeBodyFunc(func(sys *System, proc obj.AD) (vtime.Cycles, BodyStatus, *obj.Fault) {
		ticks++
		if ticks >= 5 {
			return 100, BodyDone, nil
		}
		return 100, BodyYield, nil
	})
	p, f := s.SpawnNative(body, SpawnSpec{})
	if f != nil {
		t.Fatal(f)
	}
	run(t, s)
	if ticks != 5 {
		t.Fatalf("body ran %d times", ticks)
	}
	mustState(t, s, p, process.StateTerminated)
}

func TestConditionalSendReceive(t *testing.T) {
	s := newSystem(t, 1)
	prt, _ := s.Ports.Create(s.Heap, 1, port.FIFO)
	out, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
	msg, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	dom := mustDomain(t, s, []isa.Instr{
		isa.CRecv(2, 0, 4), // empty: r4 = 0
		isa.Store(4, 3, 0),
		isa.CSend(1, 0, 4), // fits: r4 = 1
		isa.Store(4, 3, 4),
		isa.CSend(1, 0, 4), // full: r4 = 0
		isa.Store(4, 3, 8),
		isa.CRecv(2, 0, 4), // has one: r4 = 1
		isa.Store(4, 3, 12),
		isa.Halt(),
	})
	p, _ := s.Spawn(dom, SpawnSpec{AArgs: [4]obj.AD{prt, msg, obj.NilAD, out}})
	run(t, s)
	mustState(t, s, p, process.StateTerminated)
	want := []uint32{0, 1, 0, 1}
	for i, w := range want {
		if v, _ := s.Table.ReadDWord(out, uint32(i)*4); v != w {
			t.Fatalf("flag %d = %d, want %d", i, v, w)
		}
	}
}

// TestConditionalOpsWakeTheirPartner: a conditional send that hands its
// message to a parked receiver, and a conditional receive that unparks a
// sender, return that partner to the dispatch mix as the blocking forms
// do. A receive whose destination register refuses the message shares
// that tail: the sender its port unparked is woken all the same. Each row
// parks the partner, runs the op, and runs the world to idle: the partner
// must have run to its HALT.
func TestConditionalOpsWakeTheirPartner(t *testing.T) {
	rows := []struct {
		name string
		// park parks the partner at prt and returns it.
		park func(t *testing.T, s *System, prt obj.AD) obj.AD
		op   isa.Instr
	}{
		{"a conditional send to a parked receiver", func(t *testing.T, s *System, prt obj.AD) obj.AD {
			return damageSpawn(t, s, obj.NilAD, prt, obj.NilAD, []isa.Instr{isa.Recv(1, 0), isa.Halt()})
		}, isa.CSend(1, 0, 4)},
		{"a conditional receive from a port with a parked sender", func(t *testing.T, s *System, prt obj.AD) obj.AD {
			if ok, f := s.SendMessage(prt, damageFiller(t, s), 0); !ok || f != nil {
				t.Fatalf("filling the port: %v %v", ok, f)
			}
			return damageSpawn(t, s, obj.NilAD, prt, damageFiller(t, s),
				[]isa.Instr{isa.MovI(0, 0), isa.Send(1, 0, 0), isa.Halt()})
		}, isa.CRecv(1, 0, 4)},
		{"a receive into a register past the file, from a port with a parked sender", func(t *testing.T, s *System, prt obj.AD) obj.AD {
			if ok, f := s.SendMessage(prt, damageFiller(t, s), 0); !ok || f != nil {
				t.Fatalf("filling the port: %v %v", ok, f)
			}
			return damageSpawn(t, s, obj.NilAD, prt, damageFiller(t, s),
				[]isa.Instr{isa.MovI(0, 0), isa.Send(1, 0, 0), isa.Halt()})
		}, isa.Instr{Op: isa.OpRecv, A: isa.NumAccessRegs, B: 0}},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			s := newSystem(t, 1)
			prt := damagePort(t, s, 1)
			partner := row.park(t, s, prt)
			run(t, s)
			mustState(t, s, partner, process.StateBlocked)
			p := damageSpawn(t, s, obj.NilAD, prt, damageFiller(t, s), []isa.Instr{row.op, isa.Halt()})
			run(t, s)
			mustState(t, s, p, process.StateTerminated)
			mustState(t, s, partner, process.StateTerminated)
		})
	}
}

func TestDomainSwitchCostCalibration(t *testing.T) {
	// E1 ground truth: one cross-domain call+return costs 520 cycles
	// (65 µs) more precisely, CostDomainCall+CostDomainReturn, versus
	// the intra-domain pair.
	s := newSystem(t, 1)
	callee := mustDomain(t, s, []isa.Instr{isa.Ret()})
	crossDom := mustDomain(t, s, []isa.Instr{
		isa.Call(1, 0),
		isa.Halt(),
	})
	if _, f := s.Spawn(crossDom, SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, callee}}); f != nil {
		t.Fatal(f)
	}
	run(t, s)
	// The call/ret pair must have charged exactly the calibrated cost
	// plus the two instruction overheads around it.
	// We verify via the clock delta bounds rather than exact equality
	// (dispatch and halt also charge).
	elapsed := s.CPUs[0].Clock.Now() - s.CPUs[0].IdleCycles
	min := vtime.CostDomainCall + vtime.CostDomainReturn
	if elapsed < min {
		t.Fatalf("elapsed %v < domain switch cost %v", elapsed, min)
	}
}

func TestTypeOfInstruction(t *testing.T) {
	s := newSystem(t, 1)
	out, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	prt, _ := s.Ports.Create(s.Heap, 1, port.FIFO)
	dom := mustDomain(t, s, []isa.Instr{
		isa.TypeOf(0, 1), // r0 ← type of the port in a1
		isa.Store(0, 0, 0),
		isa.Halt(),
	})
	s.Spawn(dom, SpawnSpec{AArgs: [4]obj.AD{out, prt}})
	run(t, s)
	if v, _ := s.Table.ReadDWord(out, 0); v != uint32(obj.TypePort) {
		t.Fatalf("TypeOf = %d", v)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := newSystem(t, 2)
	dom := mustDomain(t, s, []isa.Instr{isa.Halt()})
	for i := 0; i < 5; i++ {
		if _, f := s.Spawn(dom, SpawnSpec{}); f != nil {
			t.Fatal(f)
		}
	}
	run(t, s)
	st := s.Stats()
	if st.Dispatches < 5 || st.Instructions < 5 {
		t.Fatalf("stats = %+v", st)
	}
	if s.TotalCycles() == 0 || s.Now() == 0 {
		t.Fatal("clocks did not advance")
	}
}

// TestAuditExecCachesFlagsStaleCode: a live cache is clean under the audit,
// and a cache whose pinned code object or decoded program no longer matches
// what the domain holds is reported — the check that stands behind every
// "the fast path executes what the slow path would fetch" claim — as is one
// whose context has moved under it or is no longer the process's.
func TestAuditExecCachesFlagsStaleCode(t *testing.T) {
	s := newSystem(t, 1)
	dom := mustDomain(t, s, []isa.Instr{isa.AddI(0, 0, 1), isa.Br(0)})
	proc, f := s.Spawn(dom, SpawnSpec{})
	if f != nil {
		t.Fatal(f)
	}
	if _, f := s.Step(2_000); f != nil {
		t.Fatal(f)
	}
	problems := func() string {
		recs := s.AuditExecCaches()
		if len(recs) != 1 {
			t.Fatalf("%d live caches audited, want 1", len(recs))
		}
		return strings.Join(recs[0].Problems, "\n")
	}
	if p := problems(); p != "" {
		t.Fatalf("live cache flagged:\n%s", p)
	}
	xc := &s.CPUs[0].xc

	code := xc.code
	xc.code.Index++
	if p := problems(); !strings.Contains(p, "is not the domain's code slot") {
		t.Fatalf("doctored code AD not flagged:\n%s", p)
	}
	xc.code = code

	prog := xc.prog
	xc.prog = append([]isa.Instr(nil), prog...)
	xc.prog[0] = isa.AddI(0, 0, 2)
	if p := problems(); !strings.Contains(p, "decoded program diverges from the code object") {
		t.Fatalf("doctored program not flagged:\n%s", p)
	}
	xc.prog = prog

	// Move the bound context's data part without bumping the cache
	// generation: the pinned register file is no longer the context's.
	ctx, f := s.Procs.Context(proc)
	if f != nil {
		t.Fatal(f)
	}
	cd, f := s.Table.Resolve(ctx)
	if f != nil {
		t.Fatal(f)
	}
	moved, err := s.Table.Memory().Alloc(cd.DataLen)
	if err != nil {
		t.Fatal(err)
	}
	old := cd.Place
	cd.SetBases(moved.Base, cd.Access().Base)
	if p := problems(); !strings.Contains(p, "match the descriptor extent") {
		t.Fatalf("moved context not flagged:\n%s", p)
	}
	cd.Place = old

	// Clear the process's context slot raw, behind the cache.
	pd, f := s.Table.Resolve(proc)
	if f != nil {
		t.Fatal(f)
	}
	slot := s.Table.Memory().Window(pd.Access())[process.SlotContext*obj.ADSlotSize:][:obj.ADSlotSize]
	saved := binary.LittleEndian.Uint64(slot)
	binary.LittleEndian.PutUint64(slot, obj.NilAD.Encode())
	if p := problems(); !strings.Contains(p, "is not the current context") {
		t.Fatalf("rewritten context slot not flagged:\n%s", p)
	}
	binary.LittleEndian.PutUint64(slot, saved)
	if p := problems(); p != "" {
		t.Fatalf("restored cache flagged:\n%s", p)
	}
}

// TestAuditExecCachesFlagsCorruptPredecode: the audit compares the cached
// predecoded table with a fresh predecode of the domain's program, so one
// flipped op kind is a finding — as is an operand view that no longer is
// what its AD resolves to, a way keyed by another word than its view's AD,
// and a way holding the running context.
func TestAuditExecCachesFlagsCorruptPredecode(t *testing.T) {
	w := buildLoopTwin(t, Config{}, []isa.Instr{isa.Nop(), isa.Load(1, 0, 0), isa.AddI(0, 0, 1), isa.Br(1)}, [4]uint32{}, false)
	if _, f := w.s.execOne(w.cpu, 200); f != nil {
		t.Fatal(f)
	}
	problems := func() string {
		recs := w.s.AuditExecCaches()
		if len(recs) != 1 {
			t.Fatalf("%d live caches audited, want 1", len(recs))
		}
		return strings.Join(recs[0].Problems, "\n")
	}
	if p := problems(); p != "" {
		t.Fatalf("live cache flagged:\n%s", p)
	}
	xc := &w.cpu.xc

	// The table is shared with System.xcodes; the audit must not be fooled
	// by comparing the cache with its own source.
	xc.ops[2].kind = kSub
	if p := problems(); !strings.Contains(p, "predecoded table diverges from the decoded program") {
		t.Fatalf("flipped op kind not flagged:\n%s", p)
	}
	xc.ops[2].kind = kAddI

	// Move the loaded object under the memoised view without bumping the
	// cache generation — the bug class the generation exists to prevent.
	var way *obj.View
	for i := range xc.res {
		if xc.res[i].AD().Valid() {
			way = &xc.res[i]
		}
	}
	if way == nil {
		t.Fatal("the load left no operand view behind")
	}
	d, f := w.s.Table.Resolve(way.AD())
	if f != nil {
		t.Fatal(f)
	}
	moved, err := w.s.Table.Memory().Alloc(d.DataLen)
	if err != nil {
		t.Fatal(err)
	}
	old := d.Place
	d.SetBases(moved.Base, d.Access().Base)
	if p := problems(); !strings.Contains(p, "is not what") {
		t.Fatalf("stale operand view not flagged:\n%s", p)
	}
	d.Place = old
	if p := problems(); p != "" {
		t.Fatalf("restored cache flagged:\n%s", p)
	}

	// Key the way by the same object's word without the write right: a
	// store through a register holding that word would hit a view that
	// has the right.
	wi := int(way.AD().Index % resolveWays)
	key := xc.key[wi]
	if key != way.AD().Encode() {
		t.Fatalf("way %d is keyed %#x, want %#x", wi, key, way.AD().Encode())
	}
	xc.key[wi] = way.AD().Restrict(obj.RightWrite).Encode()
	if p := problems(); !strings.Contains(p, "is keyed") {
		t.Fatalf("doctored operand key not flagged:\n%s", p)
	}
	xc.key[wi] = key

	// Fill the way with the running context, which the run loop never
	// memoises: its IP is deferred.
	saved := *way
	if !w.s.Table.Fill(xc.ctx.AD(), 0, way) {
		t.Fatal("the running context does not fill")
	}
	xc.key[wi] = xc.ctx.AD().Encode()
	if p := problems(); !strings.Contains(p, "holds the running context") {
		t.Fatalf("memoised context not flagged:\n%s", p)
	}
	*way, xc.key[wi] = saved, key
	if p := problems(); p != "" {
		t.Fatalf("restored cache flagged:\n%s", p)
	}
}
