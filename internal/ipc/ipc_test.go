package ipc

import (
	"errors"
	"testing"

	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/sro"
	"repro/internal/typedef"
)

type fixture struct {
	tab   *obj.Table
	sros  *sro.Manager
	ports *port.Manager
	tdos  *typedef.Manager
	heap  obj.AD
}

func setup(t *testing.T) *fixture {
	t.Helper()
	tab := obj.NewTable(1 << 20)
	s := sro.NewManager(tab)
	heap, f := s.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	return &fixture{
		tab: tab, sros: s,
		ports: port.NewManager(tab, s),
		tdos:  typedef.NewManager(tab),
		heap:  heap,
	}
}

func (fx *fixture) msg(t *testing.T) obj.AD {
	t.Helper()
	ad, f := fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	return ad
}

func TestUntypedRoundTrip(t *testing.T) {
	fx := setup(t)
	u, f := CreateUntyped(fx.ports, fx.heap, 4, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	m := fx.msg(t)
	if err := u.Send(m); err != nil {
		t.Fatal(err)
	}
	if n, _ := fx.ports.Count(u.Port()); n != 1 {
		t.Fatalf("Count = %d", n)
	}
	got, err := u.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != m.Index {
		t.Fatal("wrong message")
	}
}

func TestUntypedWouldBlock(t *testing.T) {
	fx := setup(t)
	u, _ := CreateUntyped(fx.ports, fx.heap, 1, port.FIFO)
	if _, err := u.Receive(); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("empty receive: %v", err)
	}
	if err := u.Send(fx.msg(t)); err != nil {
		t.Fatal(err)
	}
	if err := u.Send(fx.msg(t)); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("full send: %v", err)
	}
}

func TestUntypedKeyed(t *testing.T) {
	fx := setup(t)
	u, _ := CreateUntyped(fx.ports, fx.heap, 4, port.Priority)
	low, high := fx.msg(t), fx.msg(t)
	if err := u.SendKeyed(low, 1); err != nil {
		t.Fatal(err)
	}
	if err := u.SendKeyed(high, 10); err != nil {
		t.Fatal(err)
	}
	got, _ := u.Receive()
	if got.Index != high.Index {
		t.Fatal("priority key ignored")
	}
}

// Marker types for compile-time port typing.
type tapeMsg struct{}
type diskMsg struct{}

func TestTypedRoundTrip(t *testing.T) {
	fx := setup(t)
	p, f := CreateTyped[tapeMsg](fx.ports, fx.heap, 4, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	m := Wrap[tapeMsg](fx.msg(t))
	if err := p.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := p.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got.AD().Index != m.AD().Index {
		t.Fatal("wrong message")
	}
	if _, err := p.Receive(); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("second receive: %v", err)
	}
	// The compile-time guarantee itself: the following must not
	// compile, which we can only document here.
	//
	//	var dp Typed[diskMsg]
	//	dp.Send(m) // ERROR: cannot use m (Handle[tapeMsg]) as Handle[diskMsg]
	var _ Typed[diskMsg] // the other instantiation coexists fine
}

func TestTypedAndUntypedInteroperate(t *testing.T) {
	// Figure 2's implementation is in terms of Untyped: wrapping the
	// same hardware port typed and untyped observes the same queue.
	fx := setup(t)
	u, _ := CreateUntyped(fx.ports, fx.heap, 4, port.FIFO)
	tp := Typed[tapeMsg]{u: u}
	m := fx.msg(t)
	if err := u.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := tp.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got.AD().Index != m.Index {
		t.Fatal("typed view missed untyped send")
	}
}

func TestCheckedEnforcesTypeOnSend(t *testing.T) {
	fx := setup(t)
	tape, _ := fx.tdos.Define("tape", obj.LevelGlobal, obj.NilIndex)
	p, f := CreateChecked(fx.ports, fx.tdos, fx.heap, tape, 4, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	inst, f := fx.tdos.CreateInstance(tape, obj.CreateSpec{DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	if err := p.Send(inst); err != nil {
		t.Fatal(err)
	}
	got, err := p.Receive()
	if err != nil || got.Index != inst.Index {
		t.Fatalf("checked round trip: %v %v", got, err)
	}
	// An untyped object is refused.
	plain := fx.msg(t)
	if err := p.Send(plain); !obj.IsFault(err, obj.FaultType) {
		t.Fatalf("untyped message accepted: %v", err)
	}
	// An instance of another TDO is refused.
	disk, _ := fx.tdos.Define("disk", obj.LevelGlobal, obj.NilIndex)
	dinst, _ := fx.tdos.CreateInstance(disk, obj.CreateSpec{DataLen: 8})
	if err := p.Send(dinst); !obj.IsFault(err, obj.FaultType) {
		t.Fatalf("wrong-type message accepted: %v", err)
	}
}

func TestCheckedReceiveVerifies(t *testing.T) {
	// A capability smuggled in below the wrapper cannot come out as the
	// wrong type.
	fx := setup(t)
	tape, _ := fx.tdos.Define("tape", obj.LevelGlobal, obj.NilIndex)
	p, _ := CreateChecked(fx.ports, fx.tdos, fx.heap, tape, 4, port.FIFO)
	// Smuggle via the raw hardware port.
	if err := p.u.Send(fx.msg(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Receive(); !obj.IsFault(err, obj.FaultType) {
		t.Fatalf("smuggled message passed the receive check: %v", err)
	}
}

func TestCreateCheckedRequiresTDO(t *testing.T) {
	fx := setup(t)
	notTDO := fx.msg(t)
	if _, f := CreateChecked(fx.ports, fx.tdos, fx.heap, notTDO, 4, port.FIFO); !obj.IsFault(f, obj.FaultType) {
		t.Fatalf("non-TDO accepted: %v", f)
	}
}
