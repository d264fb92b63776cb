package port

import (
	"testing"

	"repro/internal/obj"
)

func TestCancelBlockedSender(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 1, FIFO)
	fx.m.Send(p, fx.newMsg(t), 0, obj.NilAD) // fill
	proc := fx.newProc(t)
	msg := fx.newMsg(t)
	if blocked, _, f := fx.m.Send(p, msg, 0, proc); f != nil || !blocked {
		t.Fatalf("park failed: %v %v", blocked, f)
	}
	found, got, f := fx.m.CancelWaiter(p, proc)
	if f != nil {
		t.Fatal(f)
	}
	if !found {
		t.Fatal("parked sender not found")
	}
	if got.Index != msg.Index {
		t.Fatal("cancelled sender's message not returned")
	}
	if n, _ := waitingSenders(fx.m, p); n != 0 {
		t.Fatalf("waiting senders = %d after cancel", n)
	}
	// The port still works: draining the one queued message wakes
	// nobody (the cancelled sender is gone).
	_, _, wake, f := fx.m.Receive(p, obj.NilAD)
	if f != nil {
		t.Fatal(f)
	}
	if wake != nil {
		t.Fatal("cancelled sender woken")
	}
}

func TestCancelBlockedReceiver(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 2, FIFO)
	proc := fx.newProc(t)
	if _, blocked, _, f := fx.m.Receive(p, proc); f != nil || !blocked {
		t.Fatalf("park failed: %v %v", blocked, f)
	}
	found, msg, f := fx.m.CancelWaiter(p, proc)
	if f != nil || !found {
		t.Fatalf("cancel: %v %v", found, f)
	}
	if msg.Valid() {
		t.Fatal("receiver carrier held a message")
	}
	// A subsequent send queues instead of waking the gone receiver.
	blocked, wake, f := fx.m.Send(p, fx.newMsg(t), 0, obj.NilAD)
	if f != nil || blocked || wake != nil {
		t.Fatalf("send after cancel: %v %v %v", blocked, wake, f)
	}
	if n, _ := fx.m.Count(p); n != 1 {
		t.Fatalf("Count = %d", n)
	}
}

func TestCancelMiddleOfQueue(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 1, FIFO)
	fx.m.Send(p, fx.newMsg(t), 0, obj.NilAD) // fill
	procs := []obj.AD{fx.newProc(t), fx.newProc(t), fx.newProc(t)}
	for _, proc := range procs {
		if blocked, _, f := fx.m.Send(p, fx.newMsg(t), 0, proc); f != nil || !blocked {
			t.Fatalf("park: %v %v", blocked, f)
		}
	}
	// Cancel the middle waiter.
	if found, _, f := fx.m.CancelWaiter(p, procs[1]); f != nil || !found {
		t.Fatalf("cancel middle: %v %v", found, f)
	}
	if n, _ := waitingSenders(fx.m, p); n != 2 {
		t.Fatalf("waiting senders = %d", n)
	}
	// The remaining waiters wake in their original order.
	_, _, wake, _ := fx.m.Receive(p, obj.NilAD)
	if wake == nil || wake.Process.Index != procs[0].Index {
		t.Fatal("first waiter wrong after middle cancel")
	}
	_, _, wake, _ = fx.m.Receive(p, obj.NilAD)
	if wake == nil || wake.Process.Index != procs[2].Index {
		t.Fatal("last waiter wrong after middle cancel")
	}
}

func TestCancelTailThenAppend(t *testing.T) {
	// Removing the tail must fix the tail pointer so later parks link
	// correctly.
	fx := setup(t)
	p := fx.newPort(t, 1, FIFO)
	fx.m.Send(p, fx.newMsg(t), 0, obj.NilAD)
	a, bProc := fx.newProc(t), fx.newProc(t)
	fx.m.Send(p, fx.newMsg(t), 0, a)
	fx.m.Send(p, fx.newMsg(t), 0, bProc)
	if found, _, f := fx.m.CancelWaiter(p, bProc); f != nil || !found {
		t.Fatalf("cancel tail: %v %v", found, f)
	}
	c := fx.newProc(t)
	if blocked, _, f := fx.m.Send(p, fx.newMsg(t), 0, c); f != nil || !blocked {
		t.Fatalf("append after tail cancel: %v %v", blocked, f)
	}
	if n, _ := waitingSenders(fx.m, p); n != 2 {
		t.Fatalf("waiting senders = %d", n)
	}
	_, _, wake, _ := fx.m.Receive(p, obj.NilAD)
	if wake == nil || wake.Process.Index != a.Index {
		t.Fatal("head waiter wrong")
	}
	_, _, wake, _ = fx.m.Receive(p, obj.NilAD)
	if wake == nil || wake.Process.Index != c.Index {
		t.Fatal("appended waiter lost after tail cancel")
	}
}

func TestCancelAbsentWaiter(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 2, FIFO)
	proc := fx.newProc(t)
	found, _, f := fx.m.CancelWaiter(p, proc)
	if f != nil {
		t.Fatal(f)
	}
	if found {
		t.Fatal("absent waiter reported found")
	}
	notPort := fx.newMsg(t)
	if _, _, f := fx.m.CancelWaiter(notPort, proc); !obj.IsFault(f, obj.FaultType) {
		t.Fatalf("cancel on non-port: %v", f)
	}
}

func TestCancelDanglingPort(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 2, FIFO)
	proc := fx.newProc(t)
	if f := fx.tab.DestroyIndex(p.Index); f != nil {
		t.Fatal(f)
	}
	found, _, f := fx.m.CancelWaiter(p, proc)
	if f == nil || found {
		t.Fatalf("cancel through dangling port AD: found=%v fault=%v", found, f)
	}
}

// TestCancelFaultReturnsImmediately: a fault while walking a wait queue
// aborts the whole cancellation — no result, no continued walking over a
// port that just proved corrupt.
func TestCancelFaultReturnsImmediately(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 1, FIFO)
	fx.m.Send(p, fx.newMsg(t), 0, obj.NilAD) // fill
	first, second := fx.newProc(t), fx.newProc(t)
	fx.m.Send(p, fx.newMsg(t), 0, first)
	fx.m.Send(p, fx.newMsg(t), 0, second)
	st, f := fx.m.Inspect(p)
	if f != nil || len(st.Senders) != 2 {
		t.Fatalf("inspect: %v senders=%d", f, len(st.Senders))
	}
	// Destroy the head carrier out from under the queue; the walk to the
	// second waiter must fault on the dangling link, not skip over it.
	if f := fx.tab.DestroyIndex(st.Senders[0].Carrier); f != nil {
		t.Fatal(f)
	}
	found, msg, f := fx.m.CancelWaiter(p, second)
	if f == nil {
		t.Fatal("walk over destroyed carrier did not fault")
	}
	if found || msg.Valid() {
		t.Fatalf("faulting cancel returned a result: found=%v msg=%v", found, msg)
	}
}

func TestCancelPoolsCarrier(t *testing.T) {
	fx := setup(t)
	p := fx.newPort(t, 1, FIFO)
	fx.m.Send(p, fx.newMsg(t), 0, obj.NilAD)
	proc := fx.newProc(t)
	msg := fx.newMsg(t)
	before := fx.tab.Live()
	fx.m.Send(p, msg, 0, proc) // +1 carrier
	if fx.tab.Live() != before+1 {
		t.Fatalf("carrier not created: %d vs %d", fx.tab.Live(), before+1)
	}
	fx.m.CancelWaiter(p, proc)
	if fx.tab.Live() != before+1 {
		t.Fatal("cancelled carrier destroyed; want it scrubbed and pooled")
	}
	st, f := fx.m.Inspect(p)
	if f != nil || len(st.Free) != 1 {
		t.Fatalf("free pool after cancel: %v, %d carriers, want 1", f, len(st.Free))
	}
	if len(st.Senders) != 0 {
		t.Fatalf("cancelled waiter still parked: %d senders", len(st.Senders))
	}
	// The pooled carrier must not pin the cancelled sender's message.
	car := fx.tab.DescriptorAt(st.Free[0])
	if car == nil || car.Type != obj.TypeCarrier {
		t.Fatalf("free-pool entry is not a live carrier: %+v", car)
	}
	if held, f := fx.tab.LoadAD(obj.AD{Index: st.Free[0], Gen: car.Gen, Rights: obj.RightsAll}, CarSlotMessage); f != nil || held.Valid() {
		t.Fatalf("pooled carrier still holds a message: %v %v", held, f)
	}
}

// TestCyclicQueueFaults: a wait queue damaged into a cycle must fault every
// walk over it with FaultOddity instead of hanging the simulator — the
// watchdog timer cancels through CancelWaiter, so an unbounded walk there
// would wedge the whole machine.
func TestCyclicQueueFaults(t *testing.T) {
	for _, side := range []string{"senders", "receivers"} {
		fx := setup(t)
		p := fx.newPort(t, 1, FIFO)
		if side == "senders" {
			fx.m.Send(p, fx.newMsg(t), 0, obj.NilAD) // fill
			fx.m.Send(p, fx.newMsg(t), 0, fx.newProc(t))
		} else {
			fx.m.Receive(p, fx.newProc(t))
		}
		st, f := fx.m.Inspect(p)
		if f != nil || len(st.Senders)+len(st.Receivers) != 1 {
			t.Fatalf("%s: inspect: %v %+v", side, f, st)
		}
		idx := append(st.Senders, st.Receivers...)[0].Carrier
		car := obj.AD{Index: idx, Gen: fx.tab.DescriptorAt(idx).Gen, Rights: obj.RightsAll}
		if f := fx.tab.StoreADSystem(car, carSlotNext, car); f != nil {
			t.Fatal(f)
		}
		if _, f := fx.m.Inspect(p); !obj.IsFault(f, obj.FaultOddity) {
			t.Errorf("%s: queue walk over a cycle: %v", side, f)
		}
		if found, _, f := fx.m.CancelWaiter(p, fx.newProc(t)); found || !obj.IsFault(f, obj.FaultOddity) {
			t.Errorf("%s: cancel of an absent waiter over a cycle: found=%v %v", side, found, f)
		}
		if _, f := fx.m.Inspect(p); !obj.IsFault(f, obj.FaultOddity) {
			t.Errorf("%s: inspect over a cycle: %v", side, f)
		}
	}
}
