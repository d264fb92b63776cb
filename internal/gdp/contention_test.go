package gdp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
)

// TestBusContentionBendsScaling verifies the contention knob: with it off,
// independent workers scale nearly linearly across processors; with it on,
// adding processors costs each of them arbitration waits, so the speedup
// curve bends. Correctness must be unaffected either way.
func TestBusContentionBendsScaling(t *testing.T) {
	run := func(cpus int, contention vtime.Cycles) vtime.Cycles {
		s, err := New(Config{Processors: cpus, BusContention: contention})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64})
		var procs []obj.AD
		for w := uint32(0); w < 8; w++ {
			dom := mustDomain(t, s, []isa.Instr{
				isa.MovI(1, 1_000),
				isa.MovI(0, 0),
				isa.Add(0, 0, 1),
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 2),
				isa.Store(0, 0, w*4),
				isa.Halt(),
			})
			p, f := s.Spawn(dom, SpawnSpec{TimeSlice: 2_000, AArgs: [4]obj.AD{out}})
			if f != nil {
				t.Fatal(f)
			}
			procs = append(procs, p)
		}
		elapsed, f := s.Run(0)
		if f != nil {
			t.Fatal(f)
		}
		for _, p := range procs {
			if st, _ := s.Procs.StateOf(p); st != process.StateTerminated {
				t.Fatal("worker unfinished")
			}
		}
		for w := uint32(0); w < 8; w++ {
			if v, _ := s.Table.ReadDWord(out, w*4); v != 500500 {
				t.Fatalf("contention changed the answer: %d", v)
			}
		}
		return elapsed
	}

	idealSpeedup := float64(run(1, 0)) / float64(run(8, 0))
	contendedSpeedup := float64(run(1, 12)) / float64(run(8, 12))
	t.Logf("speedup at 8 processors: %.2f ideal, %.2f with a 4-cycle bus wait, %.2f with 12",
		idealSpeedup, float64(run(1, 4))/float64(run(8, 4)), contendedSpeedup)
	if idealSpeedup < 4 {
		t.Fatalf("ideal speedup at 8 cpus = %.2f", idealSpeedup)
	}
	if contendedSpeedup >= idealSpeedup*0.8 {
		t.Fatalf("contention did not bend the curve: ideal %.2f vs contended %.2f",
			idealSpeedup, contendedSpeedup)
	}
}
