package mm_test

// Table-driven coverage of the §7.3 segment-fault service
// (FaultHandlerBody): every fault code through the handler's dispatch
// (segment faults serviced, everything else forwarded or terminated),
// the organic swap-out/restore round trip, a double fault through the
// same handler, and fault delivery to a full or missing fault port.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/mm"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
)

func bootSwapping(t *testing.T) *core.IMAX {
	t.Helper()
	im, err := core.Boot(core.Config{
		Processors:  2,
		MemoryBytes: 8 << 20,
		Swapping:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func spawnProg(t *testing.T, im *core.IMAX, prog []isa.Instr, faultPort obj.AD, aargs [4]obj.AD) obj.AD {
	t.Helper()
	code, f := im.Domains.CreateCode(im.Heap, prog)
	if f != nil {
		t.Fatal(f)
	}
	dom, f := im.Domains.Create(im.Heap, code, []uint32{0})
	if f != nil {
		t.Fatal(f)
	}
	p, f := im.Spawn(dom, gdp.SpawnSpec{Priority: 5, FaultPort: faultPort, AArgs: aargs})
	if f != nil {
		t.Fatal(f)
	}
	return p
}

// TestFaultHandlerEveryCode drives one faulting process per fault code
// through a handler configured with an overflow port: segment faults are
// the handler's own business (covered separately below); every other code
// must be forwarded to the overflow port with the code as the message
// key, leaving the victim faulted for a higher-level service.
func TestFaultHandlerEveryCode(t *testing.T) {
	codes := []obj.FaultCode{
		obj.FaultInvalidAD,
		obj.FaultRights,
		obj.FaultLevel,
		obj.FaultType,
		obj.FaultBounds,
		obj.FaultNoMemory,
		obj.FaultOddity,
		obj.FaultTimeout,
		obj.FaultStorageClaim,
	}
	im := bootSwapping(t)
	hnd, f := im.Ports.Create(im.Heap, 16, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	ovf, f := im.Ports.Create(im.Heap, 16, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	if _, f := im.SpawnNative(mm.FaultHandlerBody(im.Swapper, hnd, ovf), gdp.SpawnSpec{
		Priority: 14,
	}); f != nil {
		t.Fatal(f)
	}
	want := make(map[obj.Index]obj.FaultCode)
	var victims []obj.AD
	for _, code := range codes {
		p := spawnProg(t, im, []isa.Instr{
			isa.FaultInject(uint32(code)),
			isa.Halt(),
		}, hnd, [4]obj.AD{})
		want[p.Index] = code
		victims = append(victims, p)
	}
	done := func() bool {
		n, f := im.Ports.Count(ovf)
		return f == nil && n == len(codes)
	}
	if _, f := im.RunUntil(done, 50_000_000); f != nil {
		n, _ := im.Ports.Count(ovf)
		t.Fatalf("only %d/%d victims reached the overflow port: %v", n, len(codes), f)
	}
	for i, p := range victims {
		st, f := im.Procs.StateOf(p)
		if f != nil {
			t.Fatalf("victim %d: %v", i, f)
		}
		if st != process.StateFaulted {
			t.Errorf("victim %d (%v): state %v, want faulted", i, codes[i], st)
		}
		got, f := im.Procs.FaultCode(p)
		if f != nil {
			t.Fatal(f)
		}
		if got != codes[i] {
			t.Errorf("victim %d: recorded code %v, want %v", i, got, codes[i])
		}
	}
	st, f := im.Ports.Inspect(ovf)
	if f != nil {
		t.Fatal(f)
	}
	for _, s := range st.Slots {
		if !s.Occupied {
			continue
		}
		code, ok := want[s.Msg.Index]
		if !ok {
			t.Errorf("overflow port holds unexpected object %d", s.Msg.Index)
			continue
		}
		if obj.FaultCode(s.Key) != code {
			t.Errorf("victim %d forwarded with key %v, want %v", s.Msg.Index, obj.FaultCode(s.Key), code)
		}
	}
}

// evictEverything swaps out every swappable object, so any touch the
// workload makes afterwards raises an organic segment fault.
func evictEverything(t *testing.T, im *core.IMAX) {
	t.Helper()
	for {
		_, ok, f := im.Swapper.EvictVictim()
		if f != nil {
			t.Fatal(f)
		}
		if !ok {
			return
		}
	}
}

// TestFaultHandlerSegmentRoundTrip is the service working as designed:
// evict everything, let the worker fault on its swapped-out operands (and
// its own code), and require the handler to restore residency and requeue
// it until it completes with the right answer.
func TestFaultHandlerSegmentRoundTrip(t *testing.T) {
	im := bootSwapping(t)
	src, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	if f := im.Table.WriteDWord(src, 0, 777); f != nil {
		t.Fatal(f)
	}
	dst, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	p := spawnProg(t, im, []isa.Instr{
		isa.Load(0, 1, 0),
		isa.Store(0, 2, 0),
		isa.Halt(),
	}, im.SegFaultPort, [4]obj.AD{1: src, 2: dst})
	evictEverything(t, im)
	done := func() bool {
		st, f := im.Procs.StateOf(p)
		return f == nil && st == process.StateTerminated
	}
	if _, f := im.RunUntil(done, 50_000_000); f != nil {
		st, _ := im.Procs.StateOf(p)
		t.Fatalf("worker never completed (state %v): %v", st, f)
	}
	got, f := im.Table.ReadDWord(dst, 0)
	if f != nil {
		t.Fatal(f)
	}
	if got != 777 {
		t.Fatalf("result %d after segment-fault service, want 777", got)
	}
	if im.Swapper.SwapIns == 0 {
		t.Fatal("no swap-ins recorded; the test never exercised the fault path")
	}
}

// TestFaultHandlerDoubleFault faults the same process twice through the
// same handler: first an organic segment fault (serviced, requeued), then
// an injected bounds fault. The second fault must overwrite the recorded
// code and — with no overflow port on the core wiring — terminate the
// victim rather than wedge the handler.
func TestFaultHandlerDoubleFault(t *testing.T) {
	im := bootSwapping(t)
	src, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	p := spawnProg(t, im, []isa.Instr{
		isa.Load(0, 1, 0), // segment fault once src is evicted
		isa.FaultInject(uint32(obj.FaultBounds)),
		isa.Halt(),
	}, im.SegFaultPort, [4]obj.AD{1: src})
	evictEverything(t, im)
	done := func() bool {
		st, f := im.Procs.StateOf(p)
		return f == nil && st == process.StateTerminated
	}
	if _, f := im.RunUntil(done, 50_000_000); f != nil {
		st, _ := im.Procs.StateOf(p)
		t.Fatalf("victim never reached termination (state %v): %v", st, f)
	}
	code, f := im.Procs.FaultCode(p)
	if f != nil {
		t.Fatal(f)
	}
	if code != obj.FaultBounds {
		t.Fatalf("recorded code %v, want the second fault's %v", code, obj.FaultBounds)
	}
	if st := im.Stats(); st.FaultsSent < 2 {
		t.Fatalf("only %d fault deliveries; the double fault never happened", st.FaultsSent)
	}
	if im.Swapper.SwapIns == 0 {
		t.Fatal("no swap-ins; the first (segment) fault never happened")
	}
}

// TestFaultDeliveryFullAndMissingPort covers the delivery arms below the
// handler: a victim whose fault port is full, and one with no fault port
// at all, are both terminated with the fault code on record.
func TestFaultDeliveryFullAndMissingPort(t *testing.T) {
	cases := []struct {
		name string
		port func(t *testing.T, im *core.IMAX) obj.AD
	}{
		{"full", func(t *testing.T, im *core.IMAX) obj.AD {
			fp, f := im.Ports.Create(im.Heap, 1, port.FIFO)
			if f != nil {
				t.Fatal(f)
			}
			filler, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
			if f != nil {
				t.Fatal(f)
			}
			if ok, f := im.SendMessage(fp, filler, 0); f != nil || !ok {
				t.Fatalf("fill fault port: ok=%v %v", ok, f)
			}
			return fp
		}},
		{"missing", func(t *testing.T, im *core.IMAX) obj.AD { return obj.NilAD }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			im, err := core.Boot(core.Config{Processors: 1, MemoryBytes: 4 << 20})
			if err != nil {
				t.Fatal(err)
			}
			fp := tc.port(t, im)
			p := spawnProg(t, im, []isa.Instr{
				isa.FaultInject(uint32(obj.FaultOddity)),
				isa.Halt(),
			}, fp, [4]obj.AD{})
			done := func() bool {
				st, f := im.Procs.StateOf(p)
				return f == nil && st == process.StateTerminated
			}
			if _, f := im.RunUntil(done, 10_000_000); f != nil {
				st, _ := im.Procs.StateOf(p)
				t.Fatalf("victim not terminated (state %v): %v", st, f)
			}
			code, f := im.Procs.FaultCode(p)
			if f != nil {
				t.Fatal(f)
			}
			if code != obj.FaultOddity {
				t.Fatalf("recorded code %v, want %v", code, obj.FaultOddity)
			}
			if fp.Valid() {
				if n, _ := im.Ports.Count(fp); n != 1 {
					t.Fatalf("fault port count %d, want just the filler", n)
				}
				st, f := im.Ports.Inspect(fp)
				if f != nil {
					t.Fatal(f)
				}
				for _, s := range st.Slots {
					if s.Occupied && s.Msg.Index == p.Index {
						t.Fatal("terminated victim also landed on the full fault port")
					}
				}
			}
		})
	}
}

// TestFaultHandlerFullOverflowTerminates: a victim the service cannot
// forward, because the overflow port is full, is terminated, as a fault
// delivery to a full fault port terminates it. It is not left faulted and
// held at no port.
func TestFaultHandlerFullOverflowTerminates(t *testing.T) {
	im := bootSwapping(t)
	hnd, f := im.Ports.Create(im.Heap, 16, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	ovf, f := im.Ports.Create(im.Heap, 1, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	filler, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	if ok, f := im.SendMessage(ovf, filler, 0); f != nil || !ok {
		t.Fatalf("fill overflow port: ok=%v %v", ok, f)
	}
	if _, f := im.SpawnNative(mm.FaultHandlerBody(im.Swapper, hnd, ovf), gdp.SpawnSpec{
		Priority: 14,
	}); f != nil {
		t.Fatal(f)
	}
	p := spawnProg(t, im, []isa.Instr{
		isa.FaultInject(uint32(obj.FaultOddity)),
		isa.Halt(),
	}, hnd, [4]obj.AD{})
	done := func() bool {
		st, f := im.Procs.StateOf(p)
		return f == nil && st == process.StateTerminated
	}
	if _, f := im.RunUntil(done, 10_000_000); f != nil || !done() {
		st, _ := im.Procs.StateOf(p)
		t.Fatalf("victim %v after the service met a full overflow port, want terminated: %v", st, f)
	}
	if code, f := im.Procs.FaultCode(p); f != nil || code != obj.FaultOddity {
		t.Fatalf("recorded code %v (%v), want %v", code, f, obj.FaultOddity)
	}
	if n, _ := im.Ports.Count(ovf); n != 1 {
		t.Fatalf("overflow port holds %d, want just the filler", n)
	}
}

// TestFaultHandlerNeverFaults: the service is a level-2 process and may not
// fault (§7.3), whatever a doctored world puts before it. A message on its
// fault port that is not a process is dropped; a fault port that refuses
// the receive ends the service; a victim whose segment fault names an
// object the backing store holds no image of, or one since reclaimed,
// cannot be restored and is terminated. No row counts a fault serviced.
func TestFaultHandlerNeverFaults(t *testing.T) {
	generic := func(t *testing.T, sys *gdp.System) obj.AD {
		ad, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 32})
		if f != nil {
			t.Fatal(f)
		}
		return ad
	}
	// queued makes a fault port holding msg.
	queued := func(t *testing.T, sys *gdp.System, msg obj.AD) obj.AD {
		fp, f := sys.Ports.Create(sys.Heap, 4, port.FIFO)
		if f != nil {
			t.Fatal(f)
		}
		if ok, f := sys.SendMessage(fp, msg, 0); f != nil || !ok {
			t.Fatalf("queue the message: ok=%v %v", ok, f)
		}
		return fp
	}
	// faulted makes a process stopped on a segment fault that names idx.
	faulted := func(t *testing.T, sys *gdp.System, idx obj.Index) obj.AD {
		victim, f := sys.Procs.Create(sys.Heap, process.Spec{})
		if f != nil {
			t.Fatal(f)
		}
		var pv process.Proc
		sys.Procs.Open(victim, obj.RightWrite, &pv)
		pv.SetFault(obj.FaultSegmentMoved, idx)
		pv.SetState(process.StateFaulted)
		if f := pv.Fault(); f != nil {
			t.Fatal(f)
		}
		return victim
	}
	for _, row := range []struct {
		name   string
		world  func(t *testing.T, sys *gdp.System) (faultPort, victim obj.AD)
		status gdp.BodyStatus
	}{
		{"message not a process", func(t *testing.T, sys *gdp.System) (obj.AD, obj.AD) {
			return queued(t, sys, generic(t, sys)), obj.NilAD
		}, gdp.BodyYield},
		{"fault port not a port", func(t *testing.T, sys *gdp.System) (obj.AD, obj.AD) {
			return generic(t, sys), obj.NilAD
		}, gdp.BodyDone},
		{"backing image missing", func(t *testing.T, sys *gdp.System) (obj.AD, obj.AD) {
			lost := generic(t, sys)
			if f := sys.Table.SwapOut(lost.Index, 77, math.MaxUint32, math.MaxUint32); f != nil { // past the swapper's store
				t.Fatal(f)
			}
			victim := faulted(t, sys, lost.Index)
			return queued(t, sys, victim), victim
		}, gdp.BodyYield},
		{"segment fault names a reclaimed object", func(t *testing.T, sys *gdp.System) (obj.AD, obj.AD) {
			dead := generic(t, sys)
			victim := faulted(t, sys, dead.Index)
			fp := queued(t, sys, victim)
			// Destroyed last, so that no object the world makes takes its slot.
			if f := sys.Table.Destroy(dead); f != nil {
				t.Fatal(f)
			}
			return fp, victim
		}, gdp.BodyYield},
	} {
		t.Run(row.name, func(t *testing.T) {
			sys, err := gdp.New(gdp.Config{Processors: 1, MemoryBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			fp, victim := row.world(t, sys)
			m := mm.NewSwapping(sys.Table, sys.SROs)
			body := mm.FaultHandlerBody(m, fp, obj.NilAD)
			if _, status, f := body.Step(sys, obj.NilAD); f != nil || status != row.status {
				t.Fatalf("handler step = %v, %v; want %v and no fault", status, f, row.status)
			}
			if m.FaultsServiced != 0 {
				t.Fatalf("%d faults counted as serviced, want 0", m.FaultsServiced)
			}
			if n, f := sys.Ports.Count(fp); f == nil && n != 0 {
				t.Fatalf("fault port still holds %d", n)
			}
			if victim.Valid() {
				if st, f := sys.Procs.StateOf(victim); f != nil || st != process.StateTerminated {
					t.Fatalf("victim %v (%v), want terminated", st, f)
				}
			}
		})
	}
}
