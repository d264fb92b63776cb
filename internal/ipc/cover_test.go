package ipc

import (
	"testing"

	"repro/internal/obj"
	"repro/internal/port"
)

func TestPortExposure(t *testing.T) {
	fx := setup(t)
	u, _ := CreateUntyped(fx.ports, fx.heap, 2, port.FIFO)
	if !u.Port().Valid() {
		t.Fatal("Untyped.Port invalid")
	}
	tp, _ := CreateTyped[tapeMsg](fx.ports, fx.heap, 2, port.FIFO)
	if !tp.Port().Valid() {
		t.Fatal("Typed.Port invalid")
	}
	tdo, _ := fx.tdos.Define("x", obj.LevelGlobal, obj.NilIndex)
	cp, f := CreateChecked(fx.ports, fx.tdos, fx.heap, tdo, 2, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	if !cp.Port().Valid() {
		t.Fatal("Checked.Port invalid")
	}
}

func TestTypedSendKeyed(t *testing.T) {
	fx := setup(t)
	tp, _ := CreateTyped[tapeMsg](fx.ports, fx.heap, 4, port.Priority)
	low := Wrap[tapeMsg](fx.msg(t))
	high := Wrap[tapeMsg](fx.msg(t))
	if err := tp.SendKeyed(low, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.SendKeyed(high, 9); err != nil {
		t.Fatal(err)
	}
	got, err := tp.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got.AD().Index != high.AD().Index {
		t.Fatal("typed keyed send lost its key")
	}
	if n, _ := fx.ports.Count(tp.Port()); n != 1 {
		t.Fatalf("Count = %d", n)
	}
}
