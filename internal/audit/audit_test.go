package audit_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/gdp"
	"repro/internal/mm"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/vtime"
	"repro/internal/workload"
)

func newSystem(t *testing.T, cpus int) *gdp.System {
	t.Helper()
	sys, err := gdp.New(gdp.Config{Processors: cpus, MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatalf("gdp.New: %v", err)
	}
	return sys
}

func mustClean(t *testing.T, a *audit.Auditor) {
	t.Helper()
	for _, v := range a.CheckAll() {
		t.Errorf("unexpected violation: %s", v)
	}
}

// hasViolation reports whether some violation from the subsystem mentions
// the substring.
func hasViolation(vs []audit.Violation, subsystem, substr string) bool {
	for _, v := range vs {
		if v.Subsystem == subsystem && strings.Contains(v.Msg, substr) {
			return true
		}
	}
	return false
}

func dump(vs []audit.Violation) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if b.Len() == 0 {
		return "  (none)"
	}
	return b.String()
}

func TestFreshSystemIsClean(t *testing.T) {
	sys := newSystem(t, 2)
	mustClean(t, audit.New(sys))
}

// TestWorkloadStaysClean audits a live system repeatedly while a mixed
// workload runs: every invariant must hold between any two scheduler
// steps, not just at quiescence.
func TestWorkloadStaysClean(t *testing.T) {
	sys := newSystem(t, 2)
	h, f := workload.Pipeline(sys, 3, 16, 2, 500)
	if f != nil {
		t.Fatalf("pipeline: %v", f)
	}
	if _, f := workload.Compute(sys, 2, 50, 300); f != nil {
		t.Fatalf("compute: %v", f)
	}
	a := audit.New(sys)
	for i := 0; i < 4000 && !h.Done(sys); i++ {
		if _, f := sys.Step(400); f != nil {
			t.Fatalf("step %d: %v", i, f)
		}
		if i%100 == 0 {
			if vs := a.CheckAll(); len(vs) != 0 {
				t.Fatalf("violations at step %d:\n%s", i, dump(vs))
			}
		}
	}
	mustClean(t, a)
	audit.Check(t, sys)
}

func TestDetectsCorruptType(t *testing.T) {
	sys := newSystem(t, 1)
	ad, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatalf("create: %v", f)
	}
	sys.Table.DescriptorAt(ad.Index).Type = obj.TypeInvalid
	vs := audit.New(sys).CheckObjects()
	if !hasViolation(vs, "obj", "invalid hardware type") {
		t.Fatalf("corrupt type not flagged:\n%s", dump(vs))
	}
}

func TestDetectsDanglingAncestralSRO(t *testing.T) {
	sys := newSystem(t, 1)
	ad, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatalf("create: %v", f)
	}
	sys.Table.DescriptorAt(ad.Index).SRO = obj.Index(sys.Table.Len() - 1)
	vs := audit.New(sys).CheckObjects()
	if !hasViolation(vs, "obj", "ancestral SRO") {
		t.Fatalf("dangling SRO field not flagged:\n%s", dump(vs))
	}
}

// TestDetectsSROAccountingDrift: an SRO's used counter must equal the
// summed footprint of its live allocations, byte for byte — nothing else
// (no reserved arena, no held-back slot) may stand between the two. Each
// case damages one side of that equality behind the table's back.
func TestDetectsSROAccountingDrift(t *testing.T) {
	// The used counter's place in the SRO data part (internal/sro, offUsed);
	// the doctoring case checks it against Usage before relying on it.
	const offUsed = 8
	cases := []struct {
		name   string
		damage func(t *testing.T, sys *gdp.System, ad obj.AD)
	}{
		{"shrunken footprint", func(t *testing.T, sys *gdp.System, ad obj.AD) {
			// The recorded footprint shrinks without crediting the SRO.
			sys.Table.DescriptorAt(ad.Index).DataLen -= 16
		}},
		{"doctored used counter", func(t *testing.T, sys *gdp.System, ad obj.AD) {
			_, used, _, f := sys.SROs.Usage(sys.Heap)
			if f != nil {
				t.Fatalf("usage: %v", f)
			}
			if v, f := sys.Table.ReadDWord(sys.Heap, offUsed); f != nil || v != used {
				t.Fatalf("SRO layout moved: dword at %d is %d (%v), Usage reports %d", offUsed, v, f, used)
			}
			if f := sys.Table.WriteDWord(sys.Heap, offUsed, used+16); f != nil {
				t.Fatalf("write: %v", f)
			}
		}},
		{"leaked descriptor slot", func(t *testing.T, sys *gdp.System, ad obj.AD) {
			// The slot goes dead without passing through Destroy: it is
			// neither live nor on the free list, and its storage stays
			// charged to the SRO with no object to account for it.
			sys.Table.DescriptorAt(ad.Index).Valid = false
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSystem(t, 1)
			ad, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64})
			if f != nil {
				t.Fatalf("create: %v", f)
			}
			if vs := audit.New(sys).CheckSROs(); len(vs) != 0 {
				t.Fatalf("undamaged system flagged:\n%s", dump(vs))
			}
			tc.damage(t, sys, ad)
			vs := audit.New(sys).CheckSROs()
			if !hasViolation(vs, "sro", "live allocations sum") {
				t.Fatalf("not flagged:\n%s", dump(vs))
			}
		})
	}
}

// TestDetectsSwapStateDrift corrupts one side of each swap-state
// equivalence and expects the other side's clause to object: the resident
// set against the descriptors' Valid and SwappedOut, and the backing
// store's images against the descriptors' SwappedOut and SwapToken.
func TestDetectsSwapStateDrift(t *testing.T) {
	cases := []struct {
		name, want string
		damage     func(sys *gdp.System, sw *mm.Swapping, in, out obj.AD)
	}{
		{"descriptor swapped out behind the resident set", "resident-set bit is true", func(sys *gdp.System, _ *mm.Swapping, in, _ obj.AD) {
			d := sys.Table.DescriptorAt(in.Index)
			d.SwappedOut, d.SwapToken = true, 99
		}},
		{"descriptor invalidated behind the resident set", "resident-set bit is true", func(sys *gdp.System, _ *mm.Swapping, in, _ obj.AD) {
			sys.Table.DescriptorAt(in.Index).Valid = false
		}},
		{"descriptor swapped in behind the resident set", "resident-set bit is false", func(sys *gdp.System, _ *mm.Swapping, _, out obj.AD) {
			sys.Table.DescriptorAt(out.Index).SwappedOut = false
		}},
		{"image released behind the descriptor", "backing store holds image 0, descriptor names 1", func(sys *gdp.System, sw *mm.Swapping, _, out obj.AD) {
			sw.Store.Release(out.Index, sys.Table.DescriptorAt(out.Index).SwapToken)
		}},
		{"token rewritten behind the store", "backing store holds image 1, descriptor names 7", func(sys *gdp.System, _ *mm.Swapping, _, out obj.AD) {
			sys.Table.DescriptorAt(out.Index).SwapToken = 7
		}},
		{"image outliving its descriptor", "backing store holds 1 images, 0 descriptors are swapped out", func(sys *gdp.System, sw *mm.Swapping, _, out obj.AD) {
			sys.Table.SetBacking(nil) // the release path cut
			if f := sys.Table.Destroy(out); f != nil {
				panic(f)
			}
			sys.Table.SetBacking(sw.Store)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSystem(t, 1)
			sw := mm.NewSwapping(sys.Table, sys.SROs)
			var ads [2]obj.AD // the first is swapped out, the second stays in
			for i := range ads {
				var f *obj.Fault
				if ads[i], f = sw.Allocate(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64}); f != nil {
					t.Fatalf("allocate: %v", f)
				}
			}
			if victim, ok, f := sw.EvictVictim(); f != nil || !ok || victim != ads[0].Index {
				t.Fatalf("evict: victim %d, want %d: %v %v", victim, ads[0].Index, ok, f)
			}
			mustClean(t, audit.New(sys))
			tc.damage(sys, sw, ads[1], ads[0])
			if vs := audit.New(sys).CheckObjects(); !hasViolation(vs, "obj", tc.want) {
				t.Fatalf("not flagged (want %q):\n%s", tc.want, dump(vs))
			}
		})
	}
}

func TestDetectsTricolorBreach(t *testing.T) {
	sys := newSystem(t, 1)
	a, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: 2})
	if f != nil {
		t.Fatalf("create a: %v", f)
	}
	b, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatalf("create b: %v", f)
	}
	if f := sys.Table.StoreAD(a, 0, b); f != nil {
		t.Fatalf("store: %v", f)
	}
	// Paint a black-to-white edge behind the write barrier's back.
	sys.Table.SetColor(a.Index, obj.Black)
	sys.Table.SetColor(b.Index, obj.White)
	vs := audit.New(sys).CheckTricolor()
	if !hasViolation(vs, "gc", "black object references white") {
		t.Fatalf("tricolor breach not flagged:\n%s", dump(vs))
	}
}

func TestDetectsWhitePinnedRoot(t *testing.T) {
	sys := newSystem(t, 1)
	ad, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8, Pinned: true})
	if f != nil {
		t.Fatalf("create: %v", f)
	}
	sys.Table.SetColor(ad.Index, obj.White)
	vs := audit.New(sys).CheckTricolor()
	if !hasViolation(vs, "gc", "pinned root is white") {
		t.Fatalf("white pinned root not flagged:\n%s", dump(vs))
	}
}

func TestDetectsDanglingQueuedMessage(t *testing.T) {
	sys := newSystem(t, 1)
	p, f := sys.Ports.Create(sys.Heap, 2, port.FIFO)
	if f != nil {
		t.Fatalf("port: %v", f)
	}
	msg, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatalf("msg: %v", f)
	}
	if blocked, _, f := sys.Ports.Send(p, msg, 0, obj.NilAD); f != nil || blocked {
		t.Fatalf("send: blocked=%v fault=%v", blocked, f)
	}
	// Destroy the message out from under the queue.
	if f := sys.Table.DestroyIndex(msg.Index); f != nil {
		t.Fatalf("destroy: %v", f)
	}
	vs := audit.New(sys).CheckPorts()
	if !hasViolation(vs, "port", "dangles") {
		t.Fatalf("dangling queued message not flagged:\n%s", dump(vs))
	}
}

func TestDetectsRunningUnboundProcess(t *testing.T) {
	sys := newSystem(t, 1)
	p, f := sys.SpawnNative(
		gdp.NativeBodyFunc(func(*gdp.System, obj.AD) (vtime.Cycles, gdp.BodyStatus, *obj.Fault) {
			return 0, gdp.BodyDone, nil
		}), gdp.SpawnSpec{})
	if f != nil {
		t.Fatalf("spawn: %v", f)
	}
	// Claim the process is running while no processor has it bound.
	if f := sys.Procs.SetState(p, process.StateRunning); f != nil {
		t.Fatalf("set state: %v", f)
	}
	vs := audit.New(sys).CheckScheduler()
	if !hasViolation(vs, "sched", "running process bound to 0") {
		t.Fatalf("running-unbound not flagged:\n%s", dump(vs))
	}
}

// recorder is a TB that records instead of failing, to test Check itself.
type recorder struct{ errs []string }

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func TestCheckReportsThroughTB(t *testing.T) {
	sys := newSystem(t, 1)
	ad, f := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatalf("create: %v", f)
	}
	var r recorder
	audit.Check(&r, sys)
	if len(r.errs) != 0 {
		t.Fatalf("clean system reported: %v", r.errs)
	}
	sys.Table.DescriptorAt(ad.Index).Type = obj.TypeInvalid
	audit.Check(&r, sys)
	if len(r.errs) == 0 {
		t.Fatal("corruption not reported through TB")
	}
}
