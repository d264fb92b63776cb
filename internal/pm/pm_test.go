package pm

import (
	"math"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/gc"
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

// TestProcessTreeChildren: the tree a stop or start opens is the root and
// every live descendant, depth-first with each parent before its children,
// across child blocks; a destroyed child is skipped, and a descendant that
// does not open refuses the whole.
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
	g, f := b.CreateProcess(dom, kids[0], gdp.SpawnSpec{})
	if f != nil {
		t.Fatal(f)
	}
	order := func() []obj.AD {
		t.Helper()
		tree, f := b.subtree(root, nil)
		if f != nil {
			t.Fatal(f)
		}
		ads := make([]obj.AD, len(tree))
		for i := range tree {
			ads[i] = tree[i].AD()
		}
		return ads
	}
	want := append([]obj.AD{root, kids[0], g}, kids[1:]...)
	if got := order(); !slices.Equal(got, want) {
		t.Fatalf("tree order %v, want %v", got, want)
	}
	if f := sys.SROs.Reclaim(kids[3].Index); f != nil {
		t.Fatal(f)
	}
	want = append(want[:5:5], want[6:]...)
	if got := order(); !slices.Equal(got, want) {
		t.Fatalf("tree order with a destroyed child %v, want %v", got, want)
	}
	if f := sys.Table.SwapOut(g.Index, 1, math.MaxUint32, math.MaxUint32); f != nil {
		t.Fatal(f)
	}
	if _, f := b.subtree(root, nil); !obj.IsFault(f, obj.FaultSegmentMoved) {
		t.Fatalf("tree with a swapped-out grandchild: %v, want %v", f, obj.FaultSegmentMoved)
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
	fs := NewFairScheduler(b, 1000)
	if f := fs.Adopt(weak); !obj.IsFault(f, obj.FaultRights) || len(fs.clients) != 0 {
		t.Fatalf("adopt without control right: %v, %d clients", f, len(fs.clients))
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
	fs.Rebalance()
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

// TestCreateProcessMakesRoomFirst: a child whose parent's child list cannot
// take it is refused before it is spawned, so the refusal leaves nothing
// behind: no process or context object, nothing queued at the dispatch
// port, no new entry in the parent's child list. Each row fills the
// parent's first child block, then doctors the parent or the child's spec.
// A spawn refused after the list grew leaves the new block, empty, in the
// list (left = 1); the next child takes its first slot, so refusals never
// leave more than one.
func TestCreateProcessMakesRoomFirst(t *testing.T) {
	for _, row := range []struct {
		name string
		// claim bounds the parent's heap (0: unbounded).
		claim  uint32
		doctor func(t *testing.T, sys *gdp.System, parent obj.AD) (obj.AD, gdp.SpawnSpec)
		want   obj.FaultCode
		left   int
	}{
		// The parent (92 bytes), its first frame (104) and one child
		// block (64): the heap has no room for a second block.
		{"heap full", 92 + 104 + 64, nil, obj.FaultStorageClaim, 0},
		{"child block swapped out", 0, func(t *testing.T, sys *gdp.System, parent obj.AD) (obj.AD, gdp.SpawnSpec) {
			first, f := sys.Procs.Link(parent, process.SlotChildren)
			if f != nil {
				t.Fatal(f)
			}
			if f := sys.Table.SwapOut(first.Index, 1, math.MaxUint32, math.MaxUint32); f != nil {
				t.Fatal(f)
			}
			return parent, gdp.SpawnSpec{}
		}, obj.FaultSegmentMoved, 0},
		{"parent without the write right", 0, func(t *testing.T, sys *gdp.System, parent obj.AD) (obj.AD, gdp.SpawnSpec) {
			return parent.Restrict(obj.RightWrite), gdp.SpawnSpec{}
		}, obj.FaultRights, 0},
		// Room for a second block, but the child's own heap cannot
		// hold its process.
		{"spawn refused after the list grew", 92 + 104 + 2*64, func(t *testing.T, sys *gdp.System, parent obj.AD) (obj.AD, gdp.SpawnSpec) {
			tiny, f := sys.SROs.NewGlobalHeap(1)
			if f != nil {
				t.Fatal(f)
			}
			return parent, gdp.SpawnSpec{Heap: tiny}
		}, obj.FaultStorageClaim, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			sys, b := newSys(t)
			dom := spinDomain(t, sys, 10)
			heap, f := sys.SROs.NewGlobalHeap(row.claim)
			if f != nil {
				t.Fatal(f)
			}
			parent, f := b.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{Heap: heap})
			if f != nil {
				t.Fatal(f)
			}
			for i := childSlot0; i < childBlockSlots; i++ {
				if _, f := b.CreateProcess(dom, parent, gdp.SpawnSpec{}); f != nil {
					t.Fatal(f)
				}
			}
			kids := childCount(t, sys, parent)
			target, spec := parent, gdp.SpawnSpec{}
			if row.doctor != nil {
				target, spec = row.doctor(t, sys, parent)
			}
			live := sys.Table.Live()
			queued, f := sys.Ports.Count(sys.Dispatch)
			if f != nil {
				t.Fatal(f)
			}
			if _, f := b.CreateProcess(dom, target, spec); !obj.IsFault(f, row.want) {
				t.Fatalf("child of the doctored parent: %v, want %v", f, row.want)
			}
			if n := sys.Table.Live(); n != live+row.left {
				t.Errorf("live objects %d after the refusal, want %d", n, live+row.left)
			}
			if n, _ := sys.Ports.Count(sys.Dispatch); n != queued {
				t.Errorf("dispatch port holds %d after the refusal, want %d", n, queued)
			}
			if target == parent && row.want != obj.FaultSegmentMoved { // else the list does not read
				if n := childCount(t, sys, parent); n != kids {
					t.Errorf("parent lists %d children after the refusal, want %d", n, kids)
				}
			}
			if row.left == 0 {
				return
			}
			// The next child (a process and its context) goes into the
			// block the refusal left.
			if _, f := b.CreateProcess(dom, parent, gdp.SpawnSpec{}); f != nil {
				t.Fatalf("child after the refusal: %v", f)
			}
			if n := sys.Table.Live(); n != live+row.left+2 {
				t.Errorf("live objects %d after the next child, want %d", n, live+row.left+2)
			}
			if n := childCount(t, sys, parent); n != kids+1 {
				t.Errorf("parent lists %d children after the next child, want %d", n, kids+1)
			}
		})
	}
}

// TestStopStartAllOrNothing: stops and starts apply to entire trees
// (§6.1), so one that cannot read the whole tree changes no stop count.
// The tree is a root with 12 children, stopped once; then its second child
// block is swapped out.
func TestStopStartAllOrNothing(t *testing.T) {
	for _, row := range []struct {
		name string
		op   func(*Basic, obj.AD) *obj.Fault
	}{
		{"stop", (*Basic).Stop},
		{"start", (*Basic).Start},
	} {
		t.Run(row.name, func(t *testing.T) {
			sys, b := newSys(t)
			dom := spinDomain(t, sys, 10)
			root, f := b.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{})
			if f != nil {
				t.Fatal(f)
			}
			tree := []obj.AD{root}
			for i := 0; i < 12; i++ {
				c, f := b.CreateProcess(dom, root, gdp.SpawnSpec{})
				if f != nil {
					t.Fatal(f)
				}
				tree = append(tree, c)
			}
			if f := b.Stop(root); f != nil {
				t.Fatal(f)
			}
			first, f := sys.Procs.Link(root, process.SlotChildren)
			if f != nil {
				t.Fatal(f)
			}
			second, f := sys.Table.LoadAD(first, childSlotNext)
			if f != nil {
				t.Fatal(f)
			}
			if f := sys.Table.SwapOut(second.Index, 1, math.MaxUint32, math.MaxUint32); f != nil {
				t.Fatal(f)
			}
			if f := row.op(b, root); !obj.IsFault(f, obj.FaultSegmentMoved) {
				t.Errorf("%s over a swapped-out child block: %v, want %v", row.name, f, obj.FaultSegmentMoved)
			}
			for i, p := range tree {
				if n := opened(sys, p).StopCount(); n != 1 {
					t.Errorf("tree member %d: stop count %d after the refused %s, want 1", i, n, row.name)
				}
			}
		})
	}
}

// childCount counts the entries of p's child list.
func childCount(t *testing.T, sys *gdp.System, p obj.AD) int {
	t.Helper()
	n := 0
	cur, f := sys.Procs.Link(p, process.SlotChildren)
	for f == nil && cur.Valid() {
		var bv obj.View
		sys.Table.View(cur, obj.TypeGeneric, obj.RightRead, &bv)
		for s := uint32(childSlot0); s < childBlockSlots; s++ {
			if bv.LoadAD(s).Valid() {
				n++
			}
		}
		cur, f = bv.LoadAD(childSlotNext), bv.Fault()
	}
	if f != nil {
		t.Fatal(f)
	}
	return n
}

// deadChildWorld is a system whose published root process is blocked at an
// empty port: a pinned directory holds the root and the domain its children
// run, a two-instruction program that halts.
type deadChildWorld struct {
	sys      *gdp.System
	b        *Basic
	root     obj.AD
	childDom obj.AD
}

func newDeadChildWorld(t *testing.T) *deadChildWorld {
	t.Helper()
	sys, b := newSys(t)
	var l obj.Latch
	dir := l.AD(sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 2, Pinned: true}))
	empty := l.AD(sys.Ports.Create(sys.Heap, 4, port.FIFO))
	waitCode := l.AD(sys.Domains.CreateCode(sys.Heap, []isa.Instr{isa.Recv(1, 2), isa.Halt()}))
	waitDom := l.AD(sys.Domains.Create(sys.Heap, waitCode, []uint32{0}))
	haltCode := l.AD(sys.Domains.CreateCode(sys.Heap, []isa.Instr{isa.MovI(1, 1), isa.Halt()}))
	childDom := l.AD(sys.Domains.Create(sys.Heap, haltCode, []uint32{0}))
	if f := l.Fault(); f != nil {
		t.Fatal(f)
	}
	root, f := b.CreateProcess(waitDom, obj.NilAD, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, empty}})
	if f != nil {
		t.Fatal(f)
	}
	l.Keep(sys.Table.StoreAD(dir, 0, root))
	l.Keep(sys.Table.StoreAD(dir, 1, childDom))
	if f := l.Fault(); f != nil {
		t.Fatal(f)
	}
	return &deadChildWorld{sys: sys, b: b, root: root, childDom: childDom}
}

// children creates n children of the root and runs the system until they
// have terminated and the root waits at its port again.
func (w *deadChildWorld) children(t *testing.T, n int) []obj.AD {
	t.Helper()
	var kids []obj.AD
	for range n {
		c, f := w.b.CreateProcess(w.childDom, w.root, gdp.SpawnSpec{})
		if f != nil {
			t.Fatal(f)
		}
		kids = append(kids, c)
	}
	if _, f := w.sys.Run(0); f != nil {
		t.Fatal(f)
	}
	for _, c := range kids {
		mustState(t, w.sys, c, process.StateTerminated)
	}
	mustState(t, w.sys, w.root, process.StateBlocked)
	return kids
}

func (w *deadChildWorld) collect(t *testing.T) {
	t.Helper()
	if _, f := gc.New(w.sys.Table, w.sys.SROs, w.sys.Ports, w.sys.TDOs).Collect(); f != nil {
		t.Fatal(f)
	}
}

func (w *deadChildWorld) audit(t *testing.T) {
	t.Helper()
	if vs := audit.New(w.sys).CheckAll(); len(vs) > 0 {
		t.Fatalf("audit: %v", vs)
	}
}

// TestDeadChildCollected: a child that has terminated is garbage, though
// its parent lives on and is published: after one collection cycle it no
// longer resolves, and its parent does.
func TestDeadChildCollected(t *testing.T) {
	w := newDeadChildWorld(t)
	child := w.children(t, 1)[0]
	w.collect(t)
	if _, f := w.sys.Table.Resolve(child); f == nil {
		t.Error("a terminated child still resolves after a collection cycle")
	}
	if _, f := w.sys.Table.Resolve(w.root); f != nil {
		t.Fatalf("the published root: %v", f)
	}
	w.audit(t)
}

// TestDeadChildSlotsReused: a parent that creates 10 000 children, no more
// than four of them alive at once, holds one child block: a child that has
// terminated gives its slot to the next.
func TestDeadChildSlotsReused(t *testing.T) {
	w := newDeadChildWorld(t)
	for i := range 2_500 {
		w.children(t, 4)
		if i%100 == 99 { // the dead children's storage goes back
			w.collect(t)
		}
	}
	blocks := 0
	cur, f := w.sys.Procs.Link(w.root, process.SlotChildren)
	for f == nil && cur.Valid() {
		blocks++
		cur, f = w.sys.Table.LoadAD(cur, childSlotNext)
	}
	if f != nil {
		t.Fatal(f)
	}
	if blocks != 1 {
		t.Errorf("the parent of 10 000 children, four alive at once, holds %d child blocks; want 1", blocks)
	}
	if n := childCount(t, w.sys, w.root); n != 0 {
		t.Errorf("the parent lists %d children, all of them terminated", n)
	}
	w.audit(t)
}

// TestStopOpensLiveTreeOnly: a stop of a root whose children have all
// terminated opens the root alone, and a start balances it.
func TestStopOpensLiveTreeOnly(t *testing.T) {
	w := newDeadChildWorld(t)
	w.children(t, 12) // more than one child block
	tree, f := w.b.subtree(w.root, nil)
	if f != nil {
		t.Fatal(f)
	}
	if len(tree) != 1 || tree[0].AD() != w.root {
		t.Errorf("the tree under a root whose children all terminated has %d members; want the root alone", len(tree))
	}
	if f := w.b.Stop(w.root); f != nil {
		t.Fatal(f)
	}
	if n := opened(w.sys, w.root).StopCount(); n != 1 {
		t.Errorf("root stop count %d after the stop, want 1", n)
	}
	if f := w.b.Start(w.root); f != nil {
		t.Fatal(f)
	}
	mustState(t, w.sys, w.root, process.StateBlocked)
	w.audit(t)
}

func mustState(t *testing.T, sys *gdp.System, p obj.AD, want process.State) {
	t.Helper()
	if got, f := sys.Procs.StateOf(p); f != nil || got != want {
		t.Fatalf("process %d is %v (%v), want %v", p.Index, got, f, want)
	}
}
