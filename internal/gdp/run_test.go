package gdp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/vtime"
)

// TestRunBudgetClamped is the regression test for the quantum-boundary
// overshoot: Run(maxCycles) used to check the budget only after a full
// 5000-cycle Step, so a busy system overshot by up to a quantum. The
// budget is a contract: elapsed must be exactly maxCycles for a system
// that is still busy, for budgets that are and are not quantum multiples.
func TestRunBudgetClamped(t *testing.T) {
	for _, budget := range []vtime.Cycles{4_999, 5_000, 7_001, 12_345, 23_456} {
		s := newSystem(t, 1)
		dom := mustDomain(t, s, []isa.Instr{isa.Br(0)}) // spin forever
		if _, f := s.Spawn(dom, SpawnSpec{}); f != nil {
			t.Fatal(f)
		}
		elapsed, f := s.Run(budget)
		if f == nil || f.Code != obj.FaultTimeout {
			t.Fatalf("budget %d: fault = %v, want FaultTimeout", budget, f)
		}
		if elapsed != budget {
			t.Fatalf("budget %d: elapsed = %d", budget, elapsed)
		}
		for _, cpu := range s.CPUs {
			if cpu.Clock.Now() > budget {
				t.Fatalf("budget %d: cpu %d clock = %d", budget, cpu.ID, cpu.Clock.Now())
			}
		}
	}
}

// TestRunUntilBudgetClamped covers the same contract for RunUntil.
func TestRunUntilBudgetClamped(t *testing.T) {
	s := newSystem(t, 2)
	dom := mustDomain(t, s, []isa.Instr{isa.Br(0)})
	if _, f := s.Spawn(dom, SpawnSpec{}); f != nil {
		t.Fatal(f)
	}
	const budget = 8_601
	elapsed, f := s.RunUntil(func() bool { return false }, budget)
	if f == nil || f.Code != obj.FaultTimeout {
		t.Fatalf("fault = %v, want FaultTimeout", f)
	}
	if elapsed != budget {
		t.Fatalf("elapsed = %d, want %d", elapsed, budget)
	}
}

// TestIdleTimerConvergenceAndBudget is the regression test for the idle
// path: with skewed clocks and an armed timer beyond the budget, the old
// code jumped every clock to the timer's expiry (overshooting the budget by
// arbitrary amounts) and skipped processors already past the target. Now
// all processors converge on the same post-idle instant, clamped to the
// budget.
func TestIdleTimerConvergenceAndBudget(t *testing.T) {
	s := newSystem(t, 2)
	prt, f := s.Ports.Create(s.Heap, 2, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	dom := mustDomain(t, s, []isa.Instr{
		isa.Recv(1, 0), // blocks: nobody sends
		isa.Halt(),
	})
	p, f := s.Spawn(dom, SpawnSpec{AArgs: [4]obj.AD{prt}})
	if f != nil {
		t.Fatal(f)
	}
	if _, f := s.Run(0); f != nil {
		t.Fatal(f)
	}
	// Skew processor 0 far ahead, then arm a wakeup far beyond the budget.
	s.CPUs[0].Clock.AdvanceTo(s.Now() + 40_000)
	start := s.Now()
	s.WakeAt(start+500_000, p)
	const budget = 20_000
	elapsed, f := s.Run(budget)
	if f == nil || f.Code != obj.FaultTimeout {
		t.Fatalf("fault = %v, want FaultTimeout", f)
	}
	if elapsed != budget {
		t.Fatalf("elapsed = %d, want %d (idle advance must respect the budget)", elapsed, budget)
	}
	for _, cpu := range s.CPUs {
		if cpu.Clock.Now() != start+budget {
			t.Fatalf("cpu %d clock = %d, want %d (clocks must converge after idle)",
				cpu.ID, cpu.Clock.Now(), start+budget)
		}
	}
}
