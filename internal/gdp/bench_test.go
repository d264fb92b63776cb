package gdp

import (
	"testing"

	"repro/internal/isa"
)

// benchBound builds a single-processor system bound to an endless
// register-heavy compute loop so execOne can be driven directly: the
// per-instruction interpreter cost with no scheduling traffic in the way.
func benchBound(tb testing.TB) *System {
	s, err := New(Config{Processors: 1})
	if err != nil {
		tb.Fatal(err)
	}
	prog := []isa.Instr{
		isa.MovI(0, 1),
		isa.MovI(1, 2),
		isa.Add(2, 0, 1),
		isa.Sub(3, 2, 0),
		isa.Mul(4, 2, 3),
		isa.Mov(5, 4),
		isa.Br(2),
	}
	code, f := s.Domains.CreateCode(s.Heap, prog)
	if f != nil {
		tb.Fatal(f)
	}
	dom, f := s.Domains.Create(s.Heap, code, []uint32{0})
	if f != nil {
		tb.Fatal(f)
	}
	// TimeSlice 0: never preempted, so the binding survives the setup
	// step and every direct execOne call after it.
	if _, f := s.Spawn(dom, SpawnSpec{}); f != nil {
		tb.Fatal(f)
	}
	if _, f := s.Step(100); f != nil {
		tb.Fatal(f)
	}
	if s.CPUs[0].Idle() {
		tb.Fatal("processor did not bind the loop")
	}
	return s
}

// TestFastPathAllocFree pins the allocation contract: once the per-CPU
// cache is primed, executing plain compute instructions allocates
// nothing. A regression here silently hands the speedup back to the host
// garbage collector.
func TestFastPathAllocFree(t *testing.T) {
	s := benchBound(t)
	cpu := s.CPUs[0]
	// The setup step primed the cache; one more call proves the path
	// works before measuring.
	if _, f := s.execOne(cpu, 1); f != nil {
		t.Fatal(f)
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, f := s.execOne(cpu, 1); f != nil {
			t.Fatal(f)
		}
	})
	if avg != 0 {
		t.Fatalf("cached fast path allocates %.2f allocs/op; want 0", avg)
	}
}

// TestRunLoopAllocFree pins the run loop's allocation contract: a full
// quantum-sized call — hundreds of instructions retired from locals —
// allocates nothing.
func TestRunLoopAllocFree(t *testing.T) {
	s := benchBound(t)
	cpu := s.CPUs[0]
	before := cpu.Instructions
	if _, f := s.execOne(cpu, 5_000); f != nil {
		t.Fatal(f)
	}
	if n := cpu.Instructions - before; n <= 500 {
		t.Fatalf("one execOne(cpu, 5_000) retired %d instructions; want more than 500", n)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, f := s.execOne(cpu, 5_000); f != nil {
			t.Fatal(f)
		}
	})
	if avg != 0 {
		t.Fatalf("run loop allocates %.2f allocs/op; want 0", avg)
	}
}
