package ipc

import (
	"errors"
	"testing"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/typedef"
)

// parkReceiver spawns a VM process that receives once from prt and halts,
// and runs the machine until the process is parked at the port.
func parkReceiver(t *testing.T, sys *gdp.System, prt obj.AD) obj.AD {
	t.Helper()
	code, f := sys.Domains.CreateCode(sys.Heap, []isa.Instr{isa.Recv(1, 2), isa.Halt()})
	if f != nil {
		t.Fatal(f)
	}
	dom, f := sys.Domains.Create(sys.Heap, code, []uint32{0})
	if f != nil {
		t.Fatal(f)
	}
	p, f := sys.Spawn(dom, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, prt}})
	if f != nil {
		t.Fatal(f)
	}
	if _, f := sys.Run(1_000_000); f != nil {
		t.Fatal(f)
	}
	if st, _ := sys.Procs.StateOf(p); st != process.StateBlocked {
		t.Fatalf("receiver is %v, want blocked at the empty port", st)
	}
	return p
}

// TestSendWakesParkedReceiver: a Go-side send to a port a simulated
// process is parked at hands it the message and returns it to the
// dispatch mix, through each of the three wrappers. The wake used to be
// discarded: the process stayed blocked for ever, off the wait queue, and
// the message was gone.
func TestSendWakesParkedReceiver(t *testing.T) {
	sys, err := gdp.New(gdp.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	td := typedef.NewManager(sys.Table)
	tdo, f := td.Define("tape", obj.LevelGlobal, obj.NilIndex)
	if f != nil {
		t.Fatal(f)
	}
	inst, f := td.CreateInstance(tdo, obj.CreateSpec{DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	u, _ := CreateUntyped(sys.Ports, sys.Heap, 4, port.FIFO)
	tp, _ := CreateTyped[tapeMsg](sys.Ports, sys.Heap, 4, port.FIFO)
	cp, f := CreateChecked(sys.Ports, td, sys.Heap, tdo, 4, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	for _, c := range []struct {
		name string
		prt  obj.AD
		send func() error
	}{
		{"untyped", u.Port(), func() error { return u.WithWaker(sys).Send(inst) }},
		{"typed", tp.Port(), func() error { return tp.WithWaker(sys).Send(Wrap[tapeMsg](inst)) }},
		{"checked", cp.Port(), func() error { return cp.WithWaker(sys).Send(inst) }},
	} {
		p := parkReceiver(t, sys, c.prt)
		if err := c.send(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, f := sys.Run(1_000_000); f != nil {
			t.Fatal(f)
		}
		if st, _ := sys.Procs.StateOf(p); st != process.StateTerminated {
			t.Errorf("%s: receiver is %v after the send, want terminated", c.name, st)
		}
	}

	// With no waker attached the loss is reported, not silent.
	parkReceiver(t, sys, u.Port())
	if err := u.Send(inst); !errors.Is(err, ErrNoWaker) {
		t.Errorf("send that unparked a process on a port with no waker: %v", err)
	}
}
