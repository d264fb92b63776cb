package gdp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
)

// TestBindingSurvivesCarry holds the scope of the invalidation rule from the
// interpreter's side: a store into the carry slot of a bound process (what
// every wake-up of a receiver does) leaves the processor's binding live and
// exact, and each of the two stores into the context slot, PushContext and
// PopContext, kills it, so the next instruction executes in the context the
// process object now names.
func TestBindingSurvivesCarry(t *testing.T) {
	s, err := New(Config{Processors: 1, MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := spawnProg(t, s, []isa.Instr{isa.AddI(1, 1, 1), isa.Br(0)}, SpawnSpec{})
	code, f := s.Domains.CreateCode(s.Heap, []isa.Instr{isa.MovI(2, 7), isa.Br(1)})
	if f != nil {
		t.Fatal(f)
	}
	callee, f := s.Domains.Create(s.Heap, code, []uint32{0})
	if f != nil {
		t.Fatal(f)
	}
	msg, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	if f != nil {
		t.Fatal(f)
	}
	cpu := s.CPUs[0]
	one := func() { // instructions are atomic: a one-cycle quantum retires one
		t.Helper()
		if _, f := s.Step(1); f != nil {
			t.Fatal(f)
		}
	}
	check := func(when string, live bool, ctx obj.AD) {
		t.Helper()
		if got := cpu.xc.live(s, cpu); got != live {
			t.Fatalf("%s: binding live = %v, want %v", when, got, live)
		}
		if live && cpu.xc.ctx.AD() != ctx {
			t.Fatalf("%s: bound to context %v, want %v", when, cpu.xc.ctx, ctx)
		}
		for _, rec := range s.AuditExecCaches() {
			if len(rec.Problems) > 0 {
				t.Fatalf("%s: exec-cache audit: %v", when, rec.Problems)
			}
		}
	}
	reg := func(ctx obj.AD, r uint8) uint32 {
		t.Helper()
		var c process.Ctx
		s.Procs.OpenContext(ctx, obj.RightRead, &c)
		v := c.Reg(r)
		if f := c.Fault(); f != nil {
			t.Fatal(f)
		}
		return v
	}

	one()
	outer, f := s.Procs.Context(p)
	if f != nil {
		t.Fatal(f)
	}
	check("after the first instruction", true, outer)

	primes := s.Stats().Primes
	for _, ad := range []obj.AD{msg, obj.NilAD} { // the wake-up's load, the resumption's clear
		if f := s.Procs.SetLink(p, process.SlotCarry, ad); f != nil {
			t.Fatal(f)
		}
		check("after a carry-slot store", true, outer)
	}
	one()
	if got := s.Stats().Primes; got != primes {
		t.Fatalf("the carry slot cost %d primes", got-primes)
	}

	var cv process.Ctx
	if f := s.Procs.PushContext(p, callee, &cv); f != nil {
		t.Fatal(f)
	}
	inner := cv.AD()
	check("after PushContext", false, obj.NilAD)
	r1 := reg(outer, 1)
	one()
	check("after an instruction of the callee", true, inner)
	if got := reg(inner, 2); got != 7 {
		t.Fatalf("callee r2 = %d, want 7: the instruction did not run in the pushed context", got)
	}
	if got := reg(outer, 1); got != r1 {
		t.Fatalf("caller r1 moved from %d to %d under the callee", r1, got)
	}

	if _, f := s.Procs.PopContext(p); f != nil {
		t.Fatal(f)
	}
	check("after PopContext", false, obj.NilAD)
	one()
	one()
	check("after instructions of the caller", true, outer)
	if got := reg(outer, 1); got != r1+1 {
		t.Fatalf("caller r1 = %d, want %d: the loop did not resume in the caller's context", got, r1+1)
	}
}

// TestStoreIntoRunningCodeSlot: a program that stores a second code object
// into its own domain's code slot runs the new code from the next
// instruction on, in both interpreter corners. The uncached corner fetches
// every instruction through the domain; the cached one must not keep
// executing the program it pinned.
func TestStoreIntoRunningCodeSlot(t *testing.T) {
	for _, nocache := range []bool{true, false} {
		s, err := New(Config{Processors: 1, NoExecCache: nocache})
		if err != nil {
			t.Fatal(err)
		}
		result, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
		if f != nil {
			t.Fatal(f)
		}
		tail := []isa.Instr{isa.Store(2, 2, 0), isa.Halt()} // a2 = result
		code, f := s.Domains.CreateCode(s.Heap, append([]isa.Instr{isa.Halt(), isa.MovI(2, 2)}, tail...))
		if f != nil {
			t.Fatal(f)
		}
		dom := mustDomain(t, s, append([]isa.Instr{isa.StoreA(1, 0, 0), isa.MovI(2, 1)}, tail...))
		if _, f := s.Spawn(dom, SpawnSpec{AArgs: [4]obj.AD{dom, code, result}}); f != nil {
			t.Fatal(f)
		}
		run(t, s)
		if v, f := s.Table.ReadDWord(result, 0); f != nil || v != 2 {
			t.Errorf("nocache=%v: r2 = %d (%v), want 2: the instruction after the store did not come from the new code", nocache, v, f)
		}
	}
}
