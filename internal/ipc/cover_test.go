package ipc

import (
	"errors"
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

// TestRefusalsReachTheCaller drives each refusal of the three port layers
// from a doctored world: a heap that is not an SRO, a port destroyed under
// its wrapper, a dangling message, and a message destroyed while queued.
// Each is returned to the Go caller as the fault the layer below raised.
func TestRefusalsReachTheCaller(t *testing.T) {
	fx := setup(t)
	notHeap := fx.msg(t)
	tdo, f := fx.tdos.Define("x", obj.LevelGlobal, obj.NilIndex)
	if f != nil {
		t.Fatal(f)
	}
	instance := func() obj.AD {
		ad, f := fx.tdos.CreateInstance(tdo, obj.CreateSpec{DataLen: 8})
		if f != nil {
			t.Fatal(f)
		}
		return ad
	}
	dangling := func(ad obj.AD) obj.AD {
		if f := fx.sros.Reclaim(ad.Index); f != nil {
			t.Fatal(f)
		}
		return ad
	}
	untyped := func() Untyped {
		u, f := CreateUntyped(fx.ports, fx.heap, 2, port.FIFO)
		if f != nil {
			t.Fatal(f)
		}
		return u
	}
	checked := func() Checked {
		c, f := CreateChecked(fx.ports, fx.tdos, fx.heap, tdo, 2, port.FIFO)
		if f != nil {
			t.Fatal(f)
		}
		return c
	}
	rows := []struct {
		name string
		op   func() error
		want obj.FaultCode
	}{
		{"CreateUntyped from a non-SRO", func() error {
			_, f := CreateUntyped(fx.ports, notHeap, 2, port.FIFO)
			return f
		}, obj.FaultType},
		{"CreateTyped from a non-SRO", func() error {
			_, f := CreateTyped[tapeMsg](fx.ports, notHeap, 2, port.FIFO)
			return f
		}, obj.FaultType},
		{"CreateChecked from a non-SRO", func() error {
			_, f := CreateChecked(fx.ports, fx.tdos, notHeap, tdo, 2, port.FIFO)
			return f
		}, obj.FaultType},
		{"Untyped.Send to a destroyed port", func() error {
			u := untyped()
			dangling(u.Port())
			return u.Send(fx.msg(t))
		}, obj.FaultInvalidAD},
		{"Untyped.Receive from a destroyed port", func() error {
			u := untyped()
			dangling(u.Port())
			_, err := u.Receive()
			return err
		}, obj.FaultInvalidAD},
		{"Checked.Send of a dangling message", func() error {
			return checked().Send(dangling(instance()))
		}, obj.FaultInvalidAD},
		{"Checked.Receive from a destroyed port", func() error {
			c := checked()
			dangling(c.Port())
			_, err := c.Receive()
			return err
		}, obj.FaultInvalidAD},
		{"Checked.Receive of a message destroyed while queued", func() error {
			c := checked()
			m := instance()
			if err := c.Send(m); err != nil {
				t.Fatal(err)
			}
			dangling(m)
			_, err := c.Receive()
			return err
		}, obj.FaultInvalidAD},
	}
	for _, row := range rows {
		var f *obj.Fault
		if err := row.op(); !errors.As(err, &f) || f.Code != row.want {
			t.Errorf("%s: %v, want %v", row.name, err, row.want)
		}
	}
}
