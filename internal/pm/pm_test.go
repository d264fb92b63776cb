package pm

import (
	"testing"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
)

func newSys(t *testing.T) (*gdp.System, *Basic) {
	t.Helper()
	sys, err := gdp.New(gdp.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys, NewBasic(sys)
}

// spinDomain returns a domain running a long countdown loop.
func spinDomain(t *testing.T, sys *gdp.System, iters uint32) obj.AD {
	t.Helper()
	code, f := sys.Domains.CreateCode(sys.Heap, []isa.Instr{
		isa.MovI(1, iters),
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 1),
		isa.Halt(),
	})
	if f != nil {
		t.Fatal(f)
	}
	dom, f := sys.Domains.Create(sys.Heap, code, []uint32{0})
	if f != nil {
		t.Fatal(f)
	}
	return dom
}

func TestProcessTreeChildren(t *testing.T) {
	sys, b := newSys(t)
	dom := spinDomain(t, sys, 10)
	root, f := b.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{})
	if f != nil {
		t.Fatal(f)
	}
	var kids []obj.AD
	for i := 0; i < 12; i++ { // more than one child block
		c, f := b.CreateProcess(dom, root, gdp.SpawnSpec{})
		if f != nil {
			t.Fatal(f)
		}
		kids = append(kids, c)
	}
	var seen int
	if f := b.Children(root, func(c obj.AD) *obj.Fault {
		seen++
		return nil
	}); f != nil {
		t.Fatal(f)
	}
	if seen != len(kids) {
		t.Fatalf("Children saw %d of %d", seen, len(kids))
	}
	// Walk includes the root and grandchildren.
	g, f := b.CreateProcess(dom, kids[0], gdp.SpawnSpec{})
	if f != nil {
		t.Fatal(f)
	}
	_ = g
	var walked int
	if f := b.Walk(root, func(obj.AD) *obj.Fault { walked++; return nil }); f != nil {
		t.Fatal(f)
	}
	if walked != 14 { // root + 12 children + 1 grandchild
		t.Fatalf("Walk saw %d", walked)
	}
}

func TestNestedStopStart(t *testing.T) {
	// §6.1: nested stopping and starting — a process resumes only when
	// starts balance stops.
	sys, b := newSys(t)
	dom := spinDomain(t, sys, 200_000)
	p, f := b.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{TimeSlice: 1000})
	if f != nil {
		t.Fatal(f)
	}
	if f := b.Stop(p); f != nil {
		t.Fatal(f)
	}
	if f := b.Stop(p); f != nil {
		t.Fatal(f)
	}
	// Two stops outstanding: the system must go idle without finishing.
	if _, f := sys.Run(0); f != nil {
		t.Fatal(f)
	}
	if st, _ := sys.Procs.StateOf(p); st != process.StateStopped {
		t.Fatalf("state = %v, want stopped", st)
	}
	// One start is not enough.
	if f := b.Start(p); f != nil {
		t.Fatal(f)
	}
	if n := opened(sys, p).StopCount(); n == 0 {
		t.Fatal("single start cleared two stops")
	}
	if _, f := sys.Run(0); f != nil {
		t.Fatal(f)
	}
	if st, _ := sys.Procs.StateOf(p); st == process.StateTerminated {
		t.Fatal("process ran while nested-stopped")
	}
	// The balancing start resumes it.
	if f := b.Start(p); f != nil {
		t.Fatal(f)
	}
	if _, f := sys.Run(0); f != nil {
		t.Fatal(f)
	}
	if st, _ := sys.Procs.StateOf(p); st != process.StateTerminated {
		t.Fatalf("state = %v after balanced start", st)
	}
}

func TestStopAppliesToWholeTree(t *testing.T) {
	sys, b := newSys(t)
	dom := spinDomain(t, sys, 200_000)
	root, _ := b.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{TimeSlice: 1000})
	child, _ := b.CreateProcess(dom, root, gdp.SpawnSpec{TimeSlice: 1000})
	grand, _ := b.CreateProcess(dom, child, gdp.SpawnSpec{TimeSlice: 1000})
	if f := b.Stop(root); f != nil {
		t.Fatal(f)
	}
	for _, p := range []obj.AD{root, child, grand} {
		if n := opened(sys, p).StopCount(); n == 0 {
			t.Fatal("descendant not stopped")
		}
	}
	if f := b.Start(root); f != nil {
		t.Fatal(f)
	}
	if _, f := sys.Run(0); f != nil {
		t.Fatal(f)
	}
	for _, p := range []obj.AD{root, child, grand} {
		if st, _ := sys.Procs.StateOf(p); st != process.StateTerminated {
			t.Fatalf("tree member state = %v after start", st)
		}
	}
}

func TestStopRequiresControlRight(t *testing.T) {
	sys, b := newSys(t)
	dom := spinDomain(t, sys, 10)
	p, _ := b.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{})
	weak := p.Restrict(process.RightControl)
	if f := b.Stop(weak); !obj.IsFault(f, obj.FaultRights) {
		t.Fatalf("stop without control right: %v", f)
	}
	if f := b.Start(weak); !obj.IsFault(f, obj.FaultRights) {
		t.Fatalf("start without control right: %v", f)
	}
}

func TestStartWithoutStopIsNoop(t *testing.T) {
	sys, b := newSys(t)
	dom := spinDomain(t, sys, 10)
	p, _ := b.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{})
	if f := b.Start(p); f != nil {
		t.Fatal(f)
	}
	if n := opened(sys, p).StopCount(); n != 0 {
		t.Fatalf("stop count went negative: %d", n)
	}
}

func TestStopWhileBlockedParksOnWakeup(t *testing.T) {
	// A process blocked at a port when stopped must not run when the
	// message arrives; it parks stopped and resumes on start.
	sys, b := newSys(t)
	prt, f := sys.Ports.Create(sys.Heap, 2, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	code, _ := sys.Domains.CreateCode(sys.Heap, []isa.Instr{
		isa.Recv(1, 0),
		isa.Halt(),
	})
	recvDom, _ := sys.Domains.Create(sys.Heap, code, []uint32{0})
	p, f := b.CreateProcess(recvDom, obj.NilAD, gdp.SpawnSpec{AArgs: [4]obj.AD{prt}})
	if f != nil {
		t.Fatal(f)
	}
	// Let it block.
	if _, f := sys.Run(0); f != nil {
		t.Fatal(f)
	}
	if st, _ := sys.Procs.StateOf(p); st != process.StateBlocked {
		t.Fatalf("state = %v, want blocked", st)
	}
	if f := b.Stop(p); f != nil {
		t.Fatal(f)
	}
	// Deliver the message; the wakeup must park it stopped.
	msg, _ := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	if ok, f := sys.SendMessage(prt, msg, 0); f != nil || !ok {
		t.Fatalf("SendMessage: %v %v", ok, f)
	}
	if _, f := sys.Run(0); f != nil {
		t.Fatal(f)
	}
	if st, _ := sys.Procs.StateOf(p); st != process.StateStopped {
		t.Fatalf("state = %v, want stopped after wakeup", st)
	}
	// Start releases it; it completes.
	if f := b.Start(p); f != nil {
		t.Fatal(f)
	}
	if _, f := sys.Run(0); f != nil {
		t.Fatal(f)
	}
	if st, _ := sys.Procs.StateOf(p); st != process.StateTerminated {
		t.Fatalf("state = %v, want terminated", st)
	}
}

func TestSchedulerNotifications(t *testing.T) {
	sys, b := newSys(t)
	notify, f := sys.Ports.Create(sys.Heap, 16, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	b.Notify = notify
	dom := spinDomain(t, sys, 200_000)
	p, _ := b.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{TimeSlice: 1000})
	if f := b.Stop(p); f != nil {
		t.Fatal(f)
	}
	if f := b.Start(p); f != nil {
		t.Fatal(f)
	}
	// Leave + enter notifications carry the process itself.
	for i := 0; i < 2; i++ {
		msg, blocked, _, f := sys.Ports.Receive(notify, obj.NilAD)
		if f != nil || blocked {
			t.Fatalf("missing notification %d: %v %v", i, blocked, f)
		}
		if msg.Index != p.Index {
			t.Fatal("notification names wrong process")
		}
	}
}

// TestNotificationWakesParkedScheduler: a scheduler process parked at the
// notification port is handed the leaving process and runs. The wake the
// port returned used to be discarded, which left the scheduler blocked for
// ever, off the wait queue, with the notification gone.
func TestNotificationWakesParkedScheduler(t *testing.T) {
	sys, b := newSys(t)
	notify, f := sys.Ports.Create(sys.Heap, 16, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	b.Notify = notify
	code, f := sys.Domains.CreateCode(sys.Heap, []isa.Instr{isa.Recv(1, 2), isa.Halt()})
	if f != nil {
		t.Fatal(f)
	}
	dom, f := sys.Domains.Create(sys.Heap, code, []uint32{0})
	if f != nil {
		t.Fatal(f)
	}
	sched, f := sys.Spawn(dom, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, notify}})
	if f != nil {
		t.Fatal(f)
	}
	if _, f := sys.Run(1_000_000); f != nil {
		t.Fatal(f)
	}
	if st, _ := sys.Procs.StateOf(sched); st != process.StateBlocked {
		t.Fatalf("scheduler is %v, want blocked at the empty notification port", st)
	}
	p, f := b.CreateProcess(spinDomain(t, sys, 200_000), obj.NilAD, gdp.SpawnSpec{TimeSlice: 1000})
	if f != nil {
		t.Fatal(f)
	}
	if f := b.Stop(p); f != nil {
		t.Fatal(f)
	}
	// Run, not RunUntil: the stopped process is still queued at the
	// dispatch port ahead of the woken scheduler, and the dispatch that
	// draws it skips it instead of reporting an idle machine.
	if _, f := sys.Run(1_000_000); f != nil {
		t.Fatal(f)
	}
	if st, _ := sys.Procs.StateOf(sched); st != process.StateTerminated {
		t.Fatalf("scheduler is %v after the stop notification, want terminated", st)
	}
}

func TestFairSchedulerEqualisesCPU(t *testing.T) {
	// E8's shape: under the null policy a high-priority spinner starves
	// the rest; under the fair scheduler consumed cycles even out.
	fairness := func(fair bool) float64 {
		sys, err := gdp.New(gdp.Config{Processors: 1})
		if err != nil {
			t.Fatal(err)
		}
		b := NewBasic(sys)
		dom := spinDomain(t, sys, 2_000_000) // effectively unbounded here
		var clients []obj.AD
		fs := NewFairScheduler(b, 2_000)
		for i := 0; i < 4; i++ {
			prio := uint16(1)
			if i == 0 {
				prio = 9 // the would-be hog
			}
			p, f := b.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{
				Priority:  prio,
				TimeSlice: 2_000,
			})
			if f != nil {
				t.Fatal(f)
			}
			clients = append(clients, p)
			if fair {
				if f := fs.Adopt(p); f != nil {
					t.Fatal(f)
				}
			}
		}
		if fair {
			if _, f := b.CreateNativeProcess(fs.Body(8_000), obj.NilAD, gdp.SpawnSpec{
				Priority: 15,
			}); f != nil {
				t.Fatal(f)
			}
		}
		for i := 0; i < 400; i++ {
			if _, f := sys.Step(2_000); f != nil {
				t.Fatal(f)
			}
		}
		// Jain's fairness index over consumed cycles.
		var sum, sumSq float64
		for _, p := range clients {
			c, f := sys.Procs.CPUCycles(p)
			if f != nil {
				t.Fatal(f)
			}
			x := float64(c)
			sum += x
			sumSq += x * x
		}
		if sumSq == 0 {
			return 0
		}
		return sum * sum / (4 * sumSq)
	}
	unfair := fairness(false)
	fair := fairness(true)
	if fair <= unfair {
		t.Fatalf("fair scheduler did not improve fairness: null=%.3f fair=%.3f", unfair, fair)
	}
	if fair < 0.9 {
		t.Fatalf("fair policy index = %.3f, want ≥ 0.9", fair)
	}
}

func TestFairSchedulerDropsTerminatedClients(t *testing.T) {
	sys, err := gdp.New(gdp.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBasic(sys)
	fs := NewFairScheduler(b, 1000)
	dom := spinDomain(t, sys, 5)
	p, _ := b.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{})
	if f := fs.Adopt(p); f != nil {
		t.Fatal(f)
	}
	if _, f := sys.Run(0); f != nil {
		t.Fatal(f)
	}
	if f := fs.Rebalance(); f != nil {
		t.Fatal(f)
	}
	if len(fs.clients) != 0 {
		t.Fatalf("terminated client retained: %d", len(fs.clients))
	}
}

// opened resolves p for reading its scheduling fields.
func opened(sys *gdp.System, p obj.AD) *process.Proc {
	var v process.Proc
	sys.Procs.Open(p, obj.RightRead, &v)
	return &v
}
