package gdp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vtime"
)

// TestDeadlineDispatchAvoidsStarvation contrasts the two dispatching
// disciplines: under strict priority, a high-priority spinner starves a
// low-priority one completely; under deadline-within-priority, the
// low-priority process's deadline keeps coming due, so it progresses —
// more slowly, but unboundedly.
func TestDeadlineDispatchAvoidsStarvation(t *testing.T) {
	run := func(deadline bool) (hi, lo uint32) {
		s, err := New(Config{
			Processors:       1,
			DeadlineDispatch: deadline,
			DeadlineBase:     20_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		spin := mustDomain(t, s, []isa.Instr{
			isa.MovI(1, 50_000_000),
			isa.AddI(1, 1, ^uint32(0)),
			isa.BrNZ(1, 1),
			isa.Halt(),
		})
		hiP, f := s.Spawn(spin, SpawnSpec{Priority: 9, TimeSlice: 2_000})
		if f != nil {
			t.Fatal(f)
		}
		loP, f := s.Spawn(spin, SpawnSpec{Priority: 1, TimeSlice: 2_000})
		if f != nil {
			t.Fatal(f)
		}
		for i := 0; i < 200; i++ {
			if _, f := s.Step(2_000); f != nil {
				t.Fatal(f)
			}
		}
		h, _ := s.Procs.CPUCycles(hiP)
		l, _ := s.Procs.CPUCycles(loP)
		return h, l
	}

	hiStrict, loStrict := run(false)
	hiDead, loDead := run(true)
	t.Logf("cpu cycles hi/lo: %d/%d strict priority, %d/%d deadline", hiStrict, loStrict, hiDead, loDead)
	if loStrict != 0 {
		t.Fatalf("strict priority let the low-priority process run (%d cycles)", loStrict)
	}
	if hiStrict == 0 {
		t.Fatal("high-priority process did not run under strict priority")
	}
	if loDead == 0 {
		t.Fatal("deadline dispatch still starved the low-priority process")
	}
	// High priority still wins the larger share under deadline dispatch.
	if hiDead <= loDead {
		t.Fatalf("deadline dispatch inverted priorities: hi=%d lo=%d", hiDead, loDead)
	}
}

// TestDeadlineDispatchDefaultBase exercises the default-base path.
func TestDeadlineDispatchDefaultBase(t *testing.T) {
	s, err := New(Config{Processors: 1, DeadlineDispatch: true})
	if err != nil {
		t.Fatal(err)
	}
	dom := mustDomain(t, s, []isa.Instr{isa.Halt()})
	p, f := s.Spawn(dom, SpawnSpec{Priority: 3})
	if f != nil {
		t.Fatal(f)
	}
	if _, f := s.Run(0); f != nil {
		t.Fatal(f)
	}
	if st, _ := s.Procs.StateOf(p); st.String() != "terminated" {
		t.Fatalf("state = %v", st)
	}
	_ = vtime.Cycles(0)
}
