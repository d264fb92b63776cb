package gdp

// The resumption of a woken receiver on both interpreter corners. The
// cached corner applies the resume word from its binding and runs on from
// there; the uncached corner applies it in its prologue. The two must end
// alike, fault or not, and the cached corner must not reach the reference
// interpreter (execOneSlow) for either.

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/trace"
)

// resumeProg receives into a2 from the port in a1, reads the message's
// first dword, stores it plus one into a0 and halts.
var resumeProg = []isa.Instr{
	isa.Recv(2, 1),
	isa.Load(3, 2, 0),
	isa.AddI(3, 3, 1),
	isa.Store(3, 0, 0),
	isa.Halt(),
}

// resumeTwin is one corner of the pair: a receiver parked at prt, and msg,
// the message that wakes it, holding 41 in its first dword.
type resumeTwin struct {
	s                      *System
	log                    *trace.Log
	cpu                    *CPU
	proc, prt, result, msg obj.AD
}

// parkReceiver boots one corner with one processor and the kernel trace on,
// spawns resumeProg with a 16-byte result object in a0 and a port in a1,
// and runs it until it parks at the port.
func parkReceiver(t *testing.T, nocache bool) *resumeTwin {
	t.Helper()
	s, err := New(Config{Processors: 1, MemoryBytes: 64 << 10, NoExecCache: nocache})
	if err != nil {
		t.Fatal(err)
	}
	w := &resumeTwin{s: s, log: trace.New(trace.DefaultCapacity), cpu: s.CPUs[0]}
	s.SetTracer(w.log)
	generic := func() obj.AD {
		ad, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
		if f != nil {
			t.Fatal(f)
		}
		return ad
	}
	w.result = generic()
	var f *obj.Fault
	if w.prt, f = s.Ports.Create(s.Heap, 4, port.FIFO); f != nil {
		t.Fatal(f)
	}
	w.proc = spawnProg(t, s, resumeProg, SpawnSpec{AArgs: [4]obj.AD{w.result, w.prt}})
	run(t, s)
	mustState(t, s, w.proc, process.StateBlocked)
	w.msg = generic()
	if f := s.Table.WriteDWord(w.msg, 0, 41); f != nil {
		t.Fatal(f)
	}
	return w
}

// wake sends msg to the port, which hands it to the parked receiver.
func (w *resumeTwin) wake(t *testing.T) {
	t.Helper()
	if ok, f := w.s.SendMessage(w.prt, w.msg, 0); !ok || f != nil {
		t.Fatalf("SendMessage = %v, %v", ok, f)
	}
}

// drive dispatches the woken receiver and runs it as stepVM does, until it
// leaves the processor, and returns the fault it was delivered, if any.
func (w *resumeTwin) drive(t *testing.T) *obj.Fault {
	t.Helper()
	if !w.cpu.tryDispatch(w.s) {
		t.Fatal("the woken receiver was not dispatched")
	}
	for w.cpu.proc.Valid() {
		if _, f := w.s.execOne(w.cpu, 1_000); f != nil {
			w.s.deliverFault(w.cpu, w.proc, f)
			return f
		}
	}
	return nil
}

// sameEnd fails unless the two corners ended in the same machine (every
// processor and system counter but the primes, every live object's bytes)
// and logged the same kernel trace.
func sameEnd(t *testing.T, name string, ref, cached *resumeTwin) {
	t.Helper()
	if d := machineDiff(ref.s, cached.s); d != "" {
		t.Fatalf("%s: the cached corner diverged: %s", name, d)
	}
	var a, b bytes.Buffer
	if err := ref.log.Dump(&a); err != nil {
		t.Fatal(err)
	}
	if err := cached.log.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: trace dumps differ\n--- nocache ---\n%s--- cache ---\n%s", name, a.Bytes(), b.Bytes())
	}
}

// TestWokenReceiverResumesFromItsBinding: a receiver parked at a port and
// woken by SendMessage comes back to the binding it left. The cached corner
// runs the resumption and the instructions after it with no prime and no
// call of the reference interpreter, and ends where the uncached corner
// ends, which runs all four instructions on the reference path.
func TestWokenReceiverResumesFromItsBinding(t *testing.T) {
	ref, cached := parkReceiver(t, true), parkReceiver(t, false)
	refSlows, slows, primes := ref.s.slows, cached.s.slows, cached.s.Stats().Primes
	for _, w := range []*resumeTwin{ref, cached} {
		w.wake(t)
		if f := w.drive(t); f != nil {
			t.Fatalf("nocache=%v: %v", w.s.xcOff, f)
		}
		mustState(t, w.s, w.proc, process.StateTerminated)
		if v, f := w.s.Table.ReadDWord(w.result, 0); f != nil || v != 42 {
			t.Fatalf("nocache=%v: result %d (%v), want 42: the message did not land in a2", w.s.xcOff, v, f)
		}
	}
	if n := ref.s.slows - refSlows; n != 4 {
		t.Fatalf("the uncached corner made %d reference calls for four instructions", n)
	}
	if n := cached.s.slows - slows; n != 0 {
		t.Fatalf("the cached corner made %d reference calls", n)
	}
	if n := cached.s.Stats().Primes - primes; n != 0 {
		t.Fatalf("the resumption cost %d primes", n)
	}
	sameEnd(t, "resumption", ref, cached)
}

// TestResumeFaultsAlikeInBothCorners: a resumption that faults — its carry
// object destroyed between the wake and the dispatch, or a resume word that
// names an access register past the file — faults both corners with the
// same code and text, at the same IP and instruction count, with the same
// trace, and the cached corner reaches no reference call.
func TestResumeFaultsAlikeInBothCorners(t *testing.T) {
	for _, c := range []struct {
		name   string
		want   obj.FaultCode
		doctor func(t *testing.T, w *resumeTwin)
	}{
		{"carry destroyed", obj.FaultInvalidAD, func(t *testing.T, w *resumeTwin) {
			w.wake(t)
			if f := w.s.SROs.Reclaim(w.msg.Index); f != nil {
				t.Fatal(f)
			}
		}},
		{"register past the file", obj.FaultBounds, func(t *testing.T, w *resumeTwin) {
			ctx, f := w.s.Procs.Context(w.proc)
			if f != nil {
				t.Fatal(f)
			}
			var cv process.Ctx
			w.s.Procs.OpenContext(ctx, obj.RightWrite, &cv)
			if cv.SetResume(process.ResumeRecv | isa.NumAccessRegs<<8); cv.Fault() != nil {
				t.Fatal(cv.Fault())
			}
			w.wake(t)
		}},
	} {
		ref, cached := parkReceiver(t, true), parkReceiver(t, false)
		slows := cached.s.slows
		c.doctor(t, ref)
		c.doctor(t, cached)
		fr, fc := ref.drive(t), cached.drive(t)
		if !obj.IsFault(fr, c.want) {
			t.Fatalf("%s: the uncached corner ends in %s, want code %v", c.name, faultString(fr), c.want)
		}
		if x, y := faultString(fr), faultString(fc); x != y {
			t.Fatalf("%s: the uncached corner ends in %s, the cached corner in %s", c.name, x, y)
		}
		if n := cached.s.slows - slows; n != 0 {
			t.Fatalf("%s: the cached corner made %d reference calls", c.name, n)
		}
		sameEnd(t, c.name, ref, cached)
	}
}
