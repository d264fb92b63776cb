package gdp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
)

// TestQuantumIndependence holds DESIGN.md §5's claim for the lock-step
// driver: the step size is an interleaving granularity, not a parameter
// of the answer. Twelve 2 000-iteration spinners on four processors do
// the same work at every quantum, and finish within 15 % of the
// 500-cycle run's virtual time. A quantum far above the 2 000-cycle time
// slice (50 000) leaves processors idle to the end of the step after the
// last worker halts and ends at about 1.7 times that time: an artifact of
// the driver's granularity, documented there and not asserted here.
func TestQuantumIndependence(t *testing.T) {
	var baseInstrs uint64
	var baseElapsed vtime.Cycles
	for _, quantum := range []vtime.Cycles{500, 2_000, 10_000} {
		s := newSystem(t, 4)
		dom := mustDomain(t, s, []isa.Instr{
			isa.MovI(1, 2_000),
			isa.AddI(1, 1, ^uint32(0)),
			isa.BrNZ(1, 1),
			isa.Halt(),
		})
		var procs []obj.AD
		for w := 0; w < 12; w++ {
			p, f := s.Spawn(dom, SpawnSpec{TimeSlice: 2_000})
			if f != nil {
				t.Fatal(f)
			}
			procs = append(procs, p)
		}
		for {
			worked, f := s.Step(quantum)
			if f != nil {
				t.Fatal(f)
			}
			if !worked {
				break
			}
		}
		for _, p := range procs {
			if st, _ := s.Procs.StateOf(p); st != process.StateTerminated {
				t.Fatalf("quantum %d: worker unfinished", quantum)
			}
		}
		instrs, elapsed := s.Stats().Instructions, s.Now()
		t.Logf("quantum %d: %d instructions, %d cycles", quantum, instrs, elapsed)
		if baseElapsed == 0 {
			baseInstrs, baseElapsed = instrs, elapsed
			continue
		}
		if instrs != baseInstrs {
			t.Errorf("quantum %d: %d instructions, %d at quantum 500", quantum, instrs, baseInstrs)
		}
		if diff := float64(elapsed)/float64(baseElapsed) - 1; diff > 0.15 || diff < -0.15 {
			t.Errorf("quantum %d: %d cycles, %d at quantum 500 (%+.1f%%)", quantum, elapsed, baseElapsed, 100*diff)
		}
	}
}
