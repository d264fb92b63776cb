package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obj"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceRun boots a traced system, runs a seeded mixed workload with
// random stop/start and processor-outage perturbations, and returns the
// full trace dump plus the final counters. nocache disables the
// per-processor execution cache, which promises byte-identical results.
func traceRun(t *testing.T, seed int64, nocache bool) (string, []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	im, err := Boot(Config{
		Processors:  3,
		MemoryBytes: 16 << 20,
		GC:          true,
		GCWork:      32,
		GCInterval:  30_000,
		Trace:       true,
		// Big enough that nothing wraps: a wrapped ring would compare
		// equal tails even if the runs diverged early.
		TraceCapacity: 1 << 18,
		NoExecCache:   nocache,
	})
	if err != nil {
		t.Fatal(err)
	}
	var handles []*workload.Handle
	add := func(h *workload.Handle, f *obj.Fault) {
		if f != nil {
			t.Fatal(f)
		}
		handles = append(handles, h)
		// Anchor the handle's processes and result cells in the directory:
		// workload processes blocked at unpinned ports form a subgraph
		// unreachable from the pinned roots, and an unanchored run would
		// have its waiters collected mid-flight (lost wakeups).
		anchor, af := im.MM.Allocate(im.Heap, obj.CreateSpec{
			Type: obj.TypeGeneric, AccessSlots: uint32(len(h.Procs) + len(h.Results)),
		})
		if af != nil {
			t.Fatal(af)
		}
		if f := im.Publish(uint32(len(handles)), anchor); f != nil {
			t.Fatal(f)
		}
		for i, p := range append(append([]obj.AD{}, h.Procs...), h.Results...) {
			if f := im.Table.StoreADSystem(anchor, uint32(i), p); f != nil {
				t.Fatal(f)
			}
		}
	}
	add(workload.Compute(im.System, 4, 5_000, 1_500))
	add(workload.Churn(im.System, 2, 120, 64, 1_500))
	add(workload.Pipeline(im.System, 3, 24, 2, 1_500))
	for step := 0; step < 1_500; step++ {
		if _, f := im.Step(1_500); f != nil {
			t.Fatalf("step %d: %v", step, f)
		}
		switch rng.Intn(60) {
		case 0:
			id := rng.Intn(len(im.CPUs))
			if f := im.SetProcessorOnline(id, false); f != nil {
				t.Fatal(f)
			}
			if im.OnlineProcessors() == 0 {
				im.SetProcessorOnline(id, true)
			}
		case 1:
			im.SetProcessorOnline(rng.Intn(len(im.CPUs)), true)
		}
	}
	for id := range im.CPUs {
		im.SetProcessorOnline(id, true)
	}
	done := func() bool {
		for _, h := range handles {
			if !h.Done(im.System) {
				return false
			}
		}
		return true
	}
	if _, f := im.RunUntil(done, 2_000_000_000); f != nil {
		t.Fatalf("did not drain: %v", f)
	}
	var b strings.Builder
	im.TraceLog.Dump(&b)
	return b.String(), im.TraceLog.Counts()
}

// TestTraceDeterminism is the determinism regression: the simulation is a
// deterministic function of its inputs, so two runs with the same seed
// must produce byte-identical kernel event logs. Any map-iteration or
// wall-clock dependence sneaking into a kernel path shows up here as a
// diverging trace.
func TestTraceDeterminism(t *testing.T) {
	dump1, counts1 := traceRun(t, 42, false)
	dump2, counts2 := traceRun(t, 42, false)
	if dump1 != dump2 {
		d1, d2 := strings.Split(dump1, "\n"), strings.Split(dump2, "\n")
		for i := 0; i < len(d1) && i < len(d2); i++ {
			if d1[i] != d2[i] {
				t.Fatalf("trace diverges at event %d:\n  run1: %s\n  run2: %s", i, d1[i], d2[i])
			}
		}
		t.Fatalf("trace lengths differ: %d vs %d lines", len(d1), len(d2))
	}
	if len(dump1) == 0 {
		t.Fatal("empty trace dump")
	}
	for k, c := range counts1 {
		if counts2[k] != c {
			t.Errorf("counter %v: %d vs %d", trace.Kind(k), c, counts2[k])
		}
	}

	// A different seed perturbs differently and must diverge — otherwise
	// the test above proves nothing.
	dump3, _ := traceRun(t, 7, false)
	if dump3 == dump1 {
		t.Error("different seeds produced identical traces; perturbation ineffective")
	}
}

// TestTraceDeterminismNoCache is the execution cache's contract test: a
// run with the per-processor execution cache disabled must produce the
// byte-identical kernel event log and counters of the default (cached)
// run with the same seed. Any fast-path shortcut that changes a fault,
// a cost, or a trace byte shows up here.
func TestTraceDeterminismNoCache(t *testing.T) {
	cached, counts1 := traceRun(t, 42, false)
	uncached, counts2 := traceRun(t, 42, true)
	if cached != uncached {
		c, u := strings.Split(cached, "\n"), strings.Split(uncached, "\n")
		for i := 0; i < len(c) && i < len(u); i++ {
			if c[i] != u[i] {
				t.Fatalf("trace diverges at event %d:\n  cached:   %s\n  uncached: %s", i, c[i], u[i])
			}
		}
		t.Fatalf("trace lengths differ: %d vs %d lines", len(c), len(u))
	}
	if len(cached) == 0 {
		t.Fatal("empty trace dump")
	}
	for k, c := range counts1 {
		if counts2[k] != c {
			t.Errorf("counter %v: %d vs %d", trace.Kind(k), c, counts2[k])
		}
	}
}
