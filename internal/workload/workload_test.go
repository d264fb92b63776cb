package workload

import (
	"errors"
	"testing"

	"repro/internal/gdp"
	"repro/internal/obj"
)

func newSys(t *testing.T, cpus int) *gdp.System {
	t.Helper()
	sys, err := gdp.New(gdp.Config{Processors: cpus})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func runHandle(t *testing.T, sys *gdp.System, h *Handle) {
	t.Helper()
	if _, f := sys.Run(200_000_000); f != nil {
		t.Fatal(f)
	}
	if !h.Done(sys) {
		t.Fatal("workload incomplete")
	}
}

func TestComputeWorkload(t *testing.T) {
	sys := newSys(t, 2)
	h, f := Compute(sys, 6, 500, 2_000)
	if f != nil {
		t.Fatal(f)
	}
	if len(h.Procs) != 6 {
		t.Fatalf("spawned %d", len(h.Procs))
	}
	runHandle(t, sys, h)
}

func TestChurnWorkload(t *testing.T) {
	sys := newSys(t, 1)
	before := sys.Table.Live()
	h, f := Churn(sys, 2, 50, 64, 2_000)
	if f != nil {
		t.Fatal(f)
	}
	runHandle(t, sys, h)
	if sys.Table.Live() <= before {
		t.Fatal("churn allocated nothing")
	}
}

func TestPipelineWorkload(t *testing.T) {
	for _, stages := range []int{1, 2, 4} {
		sys := newSys(t, 2)
		const items = 20
		h, f := Pipeline(sys, stages, items, 4, 2_000)
		if f != nil {
			t.Fatal(f)
		}
		if len(h.Procs) != stages+1 { // generator + stages
			t.Fatalf("stages=%d: %d processes", stages, len(h.Procs))
		}
		runHandle(t, sys, h)
		if err := h.Verify(sys, stages, items); err != nil {
			t.Fatalf("stages=%d: %v", stages, err)
		}
	}
}

func TestPipelineExpected(t *testing.T) {
	// 1 stage = accumulator only: plain sum.
	if got := PipelineExpected(1, 10); got != 55 {
		t.Fatalf("1 stage: %d", got)
	}
	// 3 stages = 2 transforms (+1 each) + accumulator.
	if got := PipelineExpected(3, 10); got != 75 {
		t.Fatalf("3 stages: %d", got)
	}
}

func TestForkJoinWorkload(t *testing.T) {
	sys := newSys(t, 2)
	h, f := ForkJoin(sys, 3, 100, 2_000)
	if f != nil {
		t.Fatal(f)
	}
	// A depth-3 binary tree: 2^4 - 1 processes.
	if len(h.Procs) != 15 {
		t.Fatalf("tree size = %d", len(h.Procs))
	}
	runHandle(t, sys, h)
	// Parent links are in place for the process manager's tree walks.
	root := h.Procs[0]
	child := h.Procs[1]
	parent, f := sys.Procs.Link(child, 5 /* process.SlotParent */)
	if f != nil {
		t.Fatal(f)
	}
	if parent.Index != root.Index {
		t.Fatal("tree parentage wrong")
	}
	_ = obj.NilAD
}

func TestWorkloadValidation(t *testing.T) {
	sys := newSys(t, 1)
	if _, f := Pipeline(sys, 0, 1, 1, 0); !obj.IsFault(f, obj.FaultBounds) {
		t.Fatalf("0-stage pipeline: %v", f)
	}
	if _, f := ForkJoin(sys, 99, 1, 0); !obj.IsFault(f, obj.FaultBounds) {
		t.Fatalf("depth-99 tree: %v", f)
	}
}

// TestMemorySweep runs each constructor on a fresh system at every memory
// size from 1 KiB to 32 KiB in 128-byte steps, across every point where
// the system or one of the constructor's objects is refused. Each must
// refuse or build at every size, never panic, and the split between the
// two is pinned. A refusal unwraps to its *obj.Fault.
func TestMemorySweep(t *testing.T) {
	for _, c := range []struct {
		name            string
		build           func(*gdp.System) *obj.Fault
		refused, builds int
	}{
		{"Compute", func(sys *gdp.System) *obj.Fault { _, f := Compute(sys, 4, 10, 0); return f }, 162, 87},
		{"Churn", func(sys *gdp.System) *obj.Fault { _, f := Churn(sys, 4, 10, 8, 0); return f }, 163, 86},
		{"Pipeline", func(sys *gdp.System) *obj.Fault { _, f := Pipeline(sys, 3, 10, 2, 0); return f }, 173, 76},
		{"ForkJoin", func(sys *gdp.System) *obj.Fault { _, f := ForkJoin(sys, 3, 10, 0); return f }, 179, 70},
		{"NewServerDomain", func(sys *gdp.System) *obj.Fault {
			_, _, f := NewServerDomain(sys, ServerSpec{Demand: 5, Touches: 1, DomainCalls: 1})
			return f
		}, 159, 90},
	} {
		refused, builds := 0, 0
		for mem := uint32(1 << 10); mem <= 32<<10; mem += 128 {
			sys, err := gdp.New(gdp.Config{MemoryBytes: mem})
			if err == nil {
				if f := c.build(sys); f != nil {
					err = f
				}
			}
			var f *obj.Fault
			if err != nil {
				refused++
				if !errors.As(err, &f) {
					t.Errorf("%s at %d bytes: %v does not unwrap to an *obj.Fault", c.name, mem, err)
				}
			} else {
				builds++
			}
		}
		if refused != c.refused || builds != c.builds {
			t.Errorf("%s: %d sizes refused and %d built, want %d and %d", c.name, refused, builds, c.refused, c.builds)
		}
	}
}
