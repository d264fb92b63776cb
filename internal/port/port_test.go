package port

import (
	"testing"
	"testing/quick"

	"repro/internal/obj"
	"repro/internal/sro"
)

type fixture struct {
	tab  *obj.Table
	sros *sro.Manager
	m    *Manager
	heap obj.AD
}

func setup(t *testing.T) *fixture {
	t.Helper()
	tab := obj.NewTable(1 << 20)
	s := sro.NewManager(tab)
	heap, f := s.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	return &fixture{tab: tab, sros: s, m: NewManager(tab, s), heap: heap}
}

// waitingSenders and waitingReceivers count the processes parked at p, from
// Inspect's walk of its wait queues.
func waitingSenders(m *Manager, p obj.AD) (int, *obj.Fault) {
	st, f := m.Inspect(p)
	if f != nil {
		return 0, f
	}
	return len(st.Senders), nil
}

func waitingReceivers(m *Manager, p obj.AD) (int, *obj.Fault) {
	st, f := m.Inspect(p)
	if f != nil {
		return 0, f
	}
	return len(st.Receivers), nil
}

func (fx *fixture) newPort(t *testing.T, capacity uint16, d Discipline) obj.AD {
	t.Helper()
	p, f := fx.m.Create(fx.heap, capacity, d)
	if f != nil {
		t.Fatal(f)
	}
	return p
}

func (fx *fixture) newMsg(t *testing.T) obj.AD {
	t.Helper()
	msg, f := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	return msg
}

func (fx *fixture) newProc(t *testing.T) obj.AD {
	t.Helper()
	p, f := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeProcess, DataLen: 32, AccessSlots: 4})
	if f != nil {
		t.Fatal(f)
	}
	return p
}

func TestCreateValidation(t *testing.T) {
	fx := setup(t)
	if _, f := fx.m.Create(fx.heap, 0, FIFO); !obj.IsFault(f, obj.FaultBounds) {
		t.Errorf("capacity 0: %v", f)
	}
	if _, f := fx.m.Create(fx.heap, MaxMessages+1, FIFO); !obj.IsFault(f, obj.FaultBounds) {
		t.Errorf("capacity too large: %v", f)
	}
	if _, f := fx.m.Create(fx.heap, 4, Discipline(9)); !obj.IsFault(f, obj.FaultType) || Discipline(9).String() != "discipline(?)" {
		t.Errorf("bad discipline: %v, %s", f, Discipline(9))
	}
	p := fx.newPort(t, 4, Priority)
	if st, f := fx.m.Inspect(p); f != nil || st.Discipline != Priority {
		t.Errorf("discipline = %+v, %v", st, f)
	}
	if typ, _ := fx.tab.TypeOf(p); typ != obj.TypePort {
		t.Errorf("TypeOf = %v", typ)
	}
}

func TestSendReceiveFIFO(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 4, FIFO)
	msgs := []obj.AD{fx.newMsg(t), fx.newMsg(t), fx.newMsg(t)}
	for _, msg := range msgs {
		blocked, wake, f := fx.m.Send(p, msg, 0, obj.NilAD)
		if f != nil || blocked || wake != nil {
			t.Fatalf("Send: blocked=%v wake=%v f=%v", blocked, wake, f)
		}
	}
	if n, _ := fx.m.Count(p); n != 3 {
		t.Fatalf("Count = %d", n)
	}
	for i, want := range msgs {
		got, blocked, wake, f := fx.m.Receive(p, obj.NilAD)
		if f != nil || blocked || wake != nil {
			t.Fatalf("Receive %d: %v %v %v", i, blocked, wake, f)
		}
		if got.Index != want.Index {
			t.Fatalf("message %d out of order: got %v want %v", i, got, want)
		}
	}
}

func TestPriorityDiscipline(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 8, Priority)
	low, mid, high := fx.newMsg(t), fx.newMsg(t), fx.newMsg(t)
	for _, s := range []struct {
		msg obj.AD
		key uint32
	}{{low, 1}, {high, 9}, {mid, 5}} {
		if _, _, f := fx.m.Send(p, s.msg, s.key, obj.NilAD); f != nil {
			t.Fatal(f)
		}
	}
	want := []obj.AD{high, mid, low}
	for i, w := range want {
		got, _, _, f := fx.m.Receive(p, obj.NilAD)
		if f != nil {
			t.Fatal(f)
		}
		if got.Index != w.Index {
			t.Fatalf("priority order wrong at %d", i)
		}
	}
}

func TestDeadlineDiscipline(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 8, Deadline)
	a, b := fx.newMsg(t), fx.newMsg(t)
	if _, _, f := fx.m.Send(p, a, 500, obj.NilAD); f != nil {
		t.Fatal(f)
	}
	if _, _, f := fx.m.Send(p, b, 100, obj.NilAD); f != nil {
		t.Fatal(f)
	}
	got, _, _, _ := fx.m.Receive(p, obj.NilAD)
	if got.Index != b.Index {
		t.Fatal("earliest deadline not delivered first")
	}
}

func TestTiesBreakByArrival(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 8, Priority)
	first, second := fx.newMsg(t), fx.newMsg(t)
	fx.m.Send(p, first, 7, obj.NilAD)
	fx.m.Send(p, second, 7, obj.NilAD)
	got, _, _, _ := fx.m.Receive(p, obj.NilAD)
	if got.Index != first.Index {
		t.Fatal("equal-priority messages reordered")
	}
}

func TestConditionalOpsDoNotBlock(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 1, FIFO)
	// Conditional receive on empty port.
	_, blocked, _, f := fx.m.Receive(p, obj.NilAD)
	if f != nil || !blocked {
		t.Fatalf("cond receive on empty: blocked=%v f=%v", blocked, f)
	}
	// Fill, then conditional send.
	fx.m.Send(p, fx.newMsg(t), 0, obj.NilAD)
	blocked, _, f = fx.m.Send(p, fx.newMsg(t), 0, obj.NilAD)
	if f != nil || !blocked {
		t.Fatalf("cond send on full: blocked=%v f=%v", blocked, f)
	}
	// No waiters were parked.
	if n, _ := waitingSenders(fx.m, p); n != 0 {
		t.Fatalf("waiting senders = %d", n)
	}
	if n, _ := waitingReceivers(fx.m, p); n != 0 {
		t.Fatalf("waiting receivers = %d", n)
	}
}

func TestBlockedSenderResumesOnReceive(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 1, FIFO)
	m1, m2 := fx.newMsg(t), fx.newMsg(t)
	sender := fx.newProc(t)

	if _, _, f := fx.m.Send(p, m1, 0, obj.NilAD); f != nil {
		t.Fatal(f)
	}
	blocked, _, f := fx.m.Send(p, m2, 0, sender)
	if f != nil || !blocked {
		t.Fatalf("second send should block: %v %v", blocked, f)
	}
	if n, _ := waitingSenders(fx.m, p); n != 1 {
		t.Fatalf("waiting senders = %d", n)
	}
	got, blocked, wake, f := fx.m.Receive(p, obj.NilAD)
	if f != nil || blocked {
		t.Fatal(f)
	}
	if got.Index != m1.Index {
		t.Fatal("wrong message received")
	}
	if wake == nil || wake.Process.Index != sender.Index {
		t.Fatalf("blocked sender not woken: %v", wake)
	}
	// The sender's message now occupies the freed slot.
	if n, _ := fx.m.Count(p); n != 1 {
		t.Fatalf("Count = %d after wakeup deposit", n)
	}
	got2, _, _, _ := fx.m.Receive(p, obj.NilAD)
	if got2.Index != m2.Index {
		t.Fatal("parked message lost")
	}
	if n, _ := waitingSenders(fx.m, p); n != 0 {
		t.Fatalf("waiting senders = %d after wake", n)
	}
}

func TestBlockedReceiverResumesOnSend(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 2, FIFO)
	receiver := fx.newProc(t)
	_, blocked, _, f := fx.m.Receive(p, receiver)
	if f != nil || !blocked {
		t.Fatalf("receive on empty should block: %v %v", blocked, f)
	}
	if n, _ := waitingReceivers(fx.m, p); n != 1 {
		t.Fatalf("waiting receivers = %d", n)
	}
	msg := fx.newMsg(t)
	blocked, wake, f := fx.m.Send(p, msg, 0, obj.NilAD)
	if f != nil || blocked {
		t.Fatal(f)
	}
	if wake == nil || wake.Process.Index != receiver.Index {
		t.Fatalf("receiver not woken: %v", wake)
	}
	if wake.Msg.Index != msg.Index {
		t.Fatalf("receiver handed wrong message: %v", wake.Msg)
	}
	// The message went to the receiver, not the queue.
	if n, _ := fx.m.Count(p); n != 0 {
		t.Fatalf("Count = %d", n)
	}
}

func TestMultipleBlockedSendersFIFOOrder(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 1, FIFO)
	fx.m.Send(p, fx.newMsg(t), 0, obj.NilAD) // fill
	s1, s2 := fx.newProc(t), fx.newProc(t)
	m1, m2 := fx.newMsg(t), fx.newMsg(t)
	fx.m.Send(p, m1, 0, s1)
	fx.m.Send(p, m2, 0, s2)
	if n, _ := waitingSenders(fx.m, p); n != 2 {
		t.Fatalf("waiting senders = %d", n)
	}
	_, _, wake, _ := fx.m.Receive(p, obj.NilAD)
	if wake == nil || wake.Process.Index != s1.Index {
		t.Fatal("senders woken out of order")
	}
	_, _, wake, _ = fx.m.Receive(p, obj.NilAD)
	if wake == nil || wake.Process.Index != s2.Index {
		t.Fatal("second sender not woken in turn")
	}
}

func TestRightsEnforced(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 2, FIFO)
	sendOnly := p.Restrict(RightReceive)
	recvOnly := p.Restrict(RightSend)
	if _, _, f := fx.m.Send(recvOnly, fx.newMsg(t), 0, obj.NilAD); !obj.IsFault(f, obj.FaultRights) {
		t.Errorf("send without right: %v", f)
	}
	if _, _, _, f := fx.m.Receive(sendOnly, obj.NilAD); !obj.IsFault(f, obj.FaultRights) {
		t.Errorf("receive without right: %v", f)
	}
	if _, _, f := fx.m.Send(sendOnly, fx.newMsg(t), 0, obj.NilAD); f != nil {
		t.Errorf("send with right: %v", f)
	}
}

func TestMessageLevelRule(t *testing.T) {
	// §5: objects passed through ports must be no less global than the
	// port.
	fx := setup(t)
	p := fx.newPort(t, 2, FIFO) // level 0
	local, _ := fx.sros.NewLocalHeap(fx.heap, 4, 0)
	localMsg, f := fx.sros.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	if f != nil {
		t.Fatal(f)
	}
	if _, _, f := fx.m.Send(p, localMsg, 0, obj.NilAD); !obj.IsFault(f, obj.FaultLevel) {
		t.Fatalf("local message through global port: %v", f)
	}
}

func TestSendNilMessage(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 2, FIFO)
	if _, _, f := fx.m.Send(p, obj.NilAD, 0, obj.NilAD); !obj.IsFault(f, obj.FaultInvalidAD) {
		t.Fatalf("nil message: %v", f)
	}
}

func TestOpsOnNonPort(t *testing.T) {
	fx := setup(t)
	notPort := fx.newMsg(t)
	if _, _, f := fx.m.Send(notPort, fx.newMsg(t), 0, obj.NilAD); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("send to non-port: %v", f)
	}
	if _, _, _, f := fx.m.Receive(notPort, obj.NilAD); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("receive from non-port: %v", f)
	}
	if _, f := fx.m.Count(notPort); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("count of non-port: %v", f)
	}
}

func TestCarriersPooled(t *testing.T) {
	// Parking and unparking must not grow the object population without
	// bound: an unparked carrier is scrubbed and pooled on its port, and
	// the next park reuses it instead of allocating.
	fx := setup(t)
	p := fx.newPort(t, 1, FIFO)
	fx.m.Send(p, fx.newMsg(t), 0, obj.NilAD)
	base := fx.tab.Live()
	proc := fx.newProc(t)
	msg := fx.newMsg(t)
	fx.m.Send(p, msg, 0, proc)   // parks: +1 carrier
	if fx.tab.Live() != base+3 { // proc + msg + carrier
		t.Fatalf("Live = %d, want %d", fx.tab.Live(), base+3)
	}
	fx.m.Receive(p, obj.NilAD) // unparks: carrier moves to the free pool
	if fx.tab.Live() != base+3 {
		t.Fatalf("after unpark: Live = %d, want %d (carrier pooled, not destroyed)", fx.tab.Live(), base+3)
	}
	st, f := fx.m.Inspect(p)
	if f != nil || len(st.Free) != 1 {
		t.Fatalf("free pool: %v, %d carriers, want 1", f, len(st.Free))
	}
	// Steady-state blocking traffic allocates nothing: repeated park/unpark
	// cycles reuse the pooled carrier.
	for i := 0; i < 5; i++ {
		fx.m.Send(p, fx.newMsg(t), 0, proc) // port full again: parks
		fx.m.Receive(p, obj.NilAD)          // unparks into the pool
	}
	if got := fx.tab.Live(); got != base+3+5 { // only the 5 fresh messages
		t.Fatalf("pooled carrier not reused: Live = %d, want %d", got, base+3+5)
	}
}

// TestConservation property-checks that messages are neither lost nor
// duplicated through any interleaving of sends and receives, including
// blocking paths.
func TestConservation(t *testing.T) {
	f := func(ops []bool, capSeed uint8) bool {
		fx := setupQuick()
		capacity := uint16(capSeed%7) + 1
		p, fault := fx.m.Create(fx.heap, capacity, FIFO)
		if fault != nil {
			return false
		}
		sent, received := 0, 0
		parked := 0
		for _, isSend := range ops {
			if isSend {
				msg, fault := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
				if fault != nil {
					return false
				}
				proc, fault := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeProcess, DataLen: 16})
				if fault != nil {
					return false
				}
				blocked, wake, fault := fx.m.Send(p, msg, 0, proc)
				if fault != nil {
					return false
				}
				sent++
				if blocked {
					parked++
				}
				if wake != nil && wake.Msg.Valid() {
					received++ // a blocked receiver consumed it
				}
			} else {
				_, blocked, wake, fault := fx.m.Receive(p, obj.NilAD)
				if fault != nil {
					return false
				}
				if !blocked {
					received++
				}
				if wake != nil {
					parked--
				}
			}
		}
		queued, fault := fx.m.Count(p)
		if fault != nil {
			return false
		}
		waiting, fault := waitingSenders(fx.m, p)
		if fault != nil {
			return false
		}
		return waiting == parked && sent == received+queued+waiting
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func setupQuick() *fixture {
	tab := obj.NewTable(1 << 22)
	s := sro.NewManager(tab)
	heap, _ := s.NewGlobalHeap(0)
	return &fixture{tab: tab, sros: s, m: NewManager(tab, s), heap: heap}
}

// TestPortPathAllocFree pins the host-allocation contract of the port
// instructions: a send/receive pair, and a park/unpark round trip through a
// pooled carrier with its *Wake, allocate nothing.
func TestPortPathAllocFree(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 4, FIFO)
	msg, proc := fx.newMsg(t), fx.newProc(t)
	pair := testing.AllocsPerRun(1000, func() {
		if blocked, _, f := fx.m.Send(p, msg, 0, obj.NilAD); f != nil || blocked {
			t.Fatal(blocked, f)
		}
		if _, blocked, _, f := fx.m.Receive(p, obj.NilAD); f != nil || blocked {
			t.Fatal(blocked, f)
		}
	})
	if pair != 0 {
		t.Errorf("send/receive pair allocates %.2f objects; want 0", pair)
	}
	roundTrip := func() {
		if _, blocked, _, f := fx.m.Receive(p, proc); f != nil || !blocked {
			t.Fatal(blocked, f)
		}
		_, wake, f := fx.m.Send(p, msg, 0, obj.NilAD)
		if f != nil || wake == nil || wake.Process != proc || wake.Msg != msg {
			t.Fatal(wake, f)
		}
	}
	roundTrip() // creates the carrier the later rounds reuse
	if park := testing.AllocsPerRun(1000, roundTrip); park != 0 {
		t.Errorf("park/unpark round trip allocates %.2f objects; want 0", park)
	}
}
