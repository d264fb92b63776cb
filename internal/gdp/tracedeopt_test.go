package gdp

// Table-driven parity tests for the cached run loop (xcache.go): each
// scenario drives twin systems — the uncached reference interpreter and
// the execution cache — through the same step cadence and the same mid-run
// mutation, comparing a full machine fingerprint (per-CPU clocks, slice
// remainders, instruction counters, stats, and the raw context data bytes
// — registers and IP) after every step. Divergence at any step means a
// refused guard or a limit crossing left the cached machine in a state the
// reference interpreter would not have produced. (The scenario names date
// from the trace compiler the run loop replaced; they are test ids.)

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
)

// deoptWorld is one constructed system plus the handles the scenario's
// mutation needs.
type deoptWorld struct {
	s     *System
	procs []obj.AD
	aux   obj.AD // scenario-dependent: usually the loaded/stored operand
}

// testInjector fires one synthetic fault at a fixed system-wide
// instruction count — the gdp.Injector contract without the inject
// package's plan machinery (which lives above gdp and cannot be imported
// here).
type testInjector struct {
	at    uint64
	fired bool
}

func (i *testInjector) NextAt() uint64 {
	if i.fired {
		return ^uint64(0)
	}
	return i.at
}

func (i *testInjector) Fire(s *System, cpu *CPU) *obj.Fault {
	i.fired = true
	return obj.Faultf(obj.FaultBounds, cpu.proc, "injected mid-trace")
}

// buildDeoptWorld constructs one system for a scenario. The construction
// sequence is fully deterministic, so the twins are byte-identical at the
// start. cfg carries only the interpreter corner.
func buildDeoptWorld(t *testing.T, cfg Config, sc *deoptScenario) *deoptWorld {
	t.Helper()
	cfg.Processors, cfg.MemoryBytes = 1, 8<<20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &deoptWorld{s: s}
	sc.build(t, w)
	return w
}

// spawnProg compiles prog into a fresh domain and spawns one process over
// it.
func spawnProg(t *testing.T, s *System, prog []isa.Instr, spec SpawnSpec) obj.AD {
	t.Helper()
	code, f := s.Domains.CreateCode(s.Heap, prog)
	if f != nil {
		t.Fatal(f)
	}
	dom, f := s.Domains.Create(s.Heap, code, []uint32{0})
	if f != nil {
		t.Fatal(f)
	}
	p, f := s.Spawn(dom, spec)
	if f != nil {
		t.Fatal(f)
	}
	return p
}

// hotLoadLoop is the shared workload: a closed hot loop of four register
// ops, a load through a0, and the back edge — all of it the run loop's, so
// one execOne retires a quantum of it.
func hotLoadLoop(iters uint32) []isa.Instr {
	return []isa.Instr{
		isa.MovI(1, iters),
		isa.MovI(2, 3),
		isa.Add(4, 4, 2), // loop head (ip 2)
		isa.Sub(5, 4, 2),
		isa.Mul(6, 4, 2),
		isa.AddI(1, 1, ^uint32(0)),
		isa.Load(3, 0, 0),
		isa.BrNZ(1, 2),
		isa.Store(4, 0, 4),
		isa.Halt(),
	}
}

// deoptFingerprint captures everything the twins must agree on: clocks,
// slice remainders, counters, stats, and each process's raw context data
// bytes (IP, resume word, register file).
func deoptFingerprint(s *System, procs []obj.AD) string {
	var b bytes.Buffer
	for _, cpu := range s.CPUs {
		fmt.Fprintf(&b, "cpu%d clock=%d slice=%d instr=%d disp=%d idle=%d\n",
			cpu.ID, cpu.Clock.Now(), cpu.sliceLeft, cpu.Instructions,
			cpu.Dispatches, cpu.IdleCycles)
	}
	// Every field but Primes, the one count the corners differ in by design
	// (nocache never binds), listed: %+v formats by reflection, which cost
	// the stop-line sweep about a tenth of its time.
	st := s.Stats()
	fmt.Fprintf(&b, "dispatches=%d preemptions=%d faults=%d instructions=%d now=%d\n",
		st.Dispatches, st.Preemptions, st.FaultsSent, st.Instructions, s.Now())
	for i, p := range procs {
		ctx, f := s.Procs.Context(p)
		if f != nil || !ctx.Valid() {
			fmt.Fprintf(&b, "proc%d no-ctx fault=%v\n", i, f)
			continue
		}
		d, f := s.Table.Resolve(ctx)
		if f != nil || d.SwappedOut() {
			fmt.Fprintf(&b, "proc%d ctx-gone fault=%v swapped=%v\n", i, f, d != nil && d.SwappedOut())
			continue
		}
		win := s.Table.Memory().Window(d.Data())
		fmt.Fprintf(&b, "proc%d ctx=% x\n", i, win[:process.CtxDataBytes])
	}
	return b.String()
}

// setAReg stores ad in access register r of ctx, as a debugger would.
func setAReg(t *testing.T, s *System, ctx obj.AD, r uint8, ad obj.AD) {
	t.Helper()
	var c process.Ctx
	s.Procs.OpenContext(ctx, obj.RightWrite, &c)
	if c.SetAReg(r, ad); c.Fault() != nil {
		t.Fatal(c.Fault())
	}
}

type deoptScenario struct {
	name string
	// build populates the world: spawn processes, stash aux handles,
	// install injectors. Must be deterministic.
	build func(t *testing.T, w *deoptWorld)
	// mutate fires once, on both twins, after a third of the steps.
	mutate func(t *testing.T, w *deoptWorld)
	// mutateWhenIP, when non-nil, delays the mutation past the warm point
	// until the first step boundary where proc 0's context IP equals this
	// value (both twins agree on the IP — that is the parity under test —
	// so the mutation stays twin-identical).
	mutateWhenIP *uint32
	// budget is the per-step cycle budget; odd values land limit
	// crossings on every instruction of the loop in turn.
	budget vtime.Cycles
	steps  int
}

func deoptScenarios() []deoptScenario {
	return []deoptScenario{
		{
			// Destroying the loaded object bumps the cache generation and
			// leaves a dangling AD in a0. The re-prime empties the operand
			// memo, so the load's fill is refused, the loop stops with the
			// machine at the load, and execInstr raises the canonical
			// fault; the parity check proves the cached machine reaches
			// that boundary byte-identically.
			name: "destroy-load-target",
			build: func(t *testing.T, w *deoptWorld) {
				res, f := w.s.SROs.Create(w.s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
				if f != nil {
					t.Fatal(f)
				}
				w.aux = res
				w.procs = append(w.procs, spawnProg(t, w.s, hotLoadLoop(60_000), SpawnSpec{AArgs: [4]obj.AD{res}}))
			},
			mutate: func(t *testing.T, w *deoptWorld) {
				if f := w.s.Table.Destroy(w.aux); f != nil {
					t.Fatal(f)
				}
			},
			budget: 4_001, steps: 120,
		},
		{
			// Swapping the loaded object out makes the operand fill fail
			// presence; the parity check covers the whole re-prime +
			// canonical-fault sequence.
			name: "swapout-load-target",
			build: func(t *testing.T, w *deoptWorld) {
				res, f := w.s.SROs.Create(w.s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
				if f != nil {
					t.Fatal(f)
				}
				w.aux = res
				w.procs = append(w.procs, spawnProg(t, w.s, hotLoadLoop(60_000), SpawnSpec{AArgs: [4]obj.AD{res}}))
			},
			mutate: func(t *testing.T, w *deoptWorld) {
				if f := w.s.Table.SwapOut(w.aux.Index, 1, math.MaxUint32, math.MaxUint32); f != nil {
					t.Fatal(f)
				}
			},
			budget: 4_001, steps: 120,
		},
		{
			// Nil out the a-reg the hot loop loads through — via SetAReg,
			// which deliberately does NOT bump the cache generation (the
			// fast path re-reads a-regs from the live window) — at a step
			// boundary where the machine is parked on the loop head. The
			// next quantum retires the four register ops, and the refused
			// load must stop the loop with the registers exactly at the
			// last completed instruction.
			name: "nil-areg-mid-trace",
			build: func(t *testing.T, w *deoptWorld) {
				res, f := w.s.SROs.Create(w.s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
				if f != nil {
					t.Fatal(f)
				}
				w.aux = res
				w.procs = append(w.procs, spawnProg(t, w.s, hotLoadLoop(60_000), SpawnSpec{AArgs: [4]obj.AD{res}}))
			},
			mutate: func(t *testing.T, w *deoptWorld) {
				ctx, f := w.s.Procs.Context(w.procs[0])
				if f != nil || !ctx.Valid() {
					t.Fatalf("process lost its context: %v", f)
				}
				setAReg(t, w.s, ctx, 0, obj.NilAD)
			},
			mutateWhenIP: func() *uint32 { ip := uint32(2); return &ip }(),
			budget:       4_001, steps: 120,
		},
		{
			// A compaction-style move of the loaded object: swap it out,
			// plug the hole so the swap-in lands at fresh extents, and
			// restore the image — the generation bump forces a re-prime
			// and the loop must run against the moved window
			// byte-identically. (The mm compactor itself cannot
			// be imported here — it sits above gdp — but the observable
			// machine events are exactly these.)
			name: "move-load-target",
			build: func(t *testing.T, w *deoptWorld) {
				res, f := w.s.SROs.Create(w.s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
				if f != nil {
					t.Fatal(f)
				}
				w.aux = res
				w.procs = append(w.procs, spawnProg(t, w.s, hotLoadLoop(60_000), SpawnSpec{AArgs: [4]obj.AD{res}}))
			},
			mutate: func(t *testing.T, w *deoptWorld) {
				tab := w.s.Table
				d, f := tab.Resolve(w.aux)
				if f != nil {
					t.Fatal(f)
				}
				oldBase := d.Data().Base
				img := append([]byte(nil), tab.Memory().Window(d.Data())...)
				if f := tab.SwapOut(w.aux.Index, 1, math.MaxUint32, math.MaxUint32); f != nil {
					t.Fatal(f)
				}
				// Plug the freed extent so the swap-in cannot land back
				// at the same address.
				if _, f := w.s.SROs.Create(w.s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: uint32(len(img))}); f != nil {
					t.Fatal(f)
				}
				data, _, f := tab.SwapIn(w.aux.Index)
				if f != nil {
					t.Fatal(f)
				}
				copy(tab.Memory().Window(data), img)
				if data.Base == oldBase {
					t.Fatal("object did not move; the scenario is vacuous")
				}
			},
			budget: 4_001, steps: 120,
		},
		{
			// A planned fault lands at a system-wide instruction count
			// chosen to fall mid-hot-loop: the loop must stop before the
			// due instruction so the injection fires exactly on time.
			name: "injected-fault-mid-trace",
			build: func(t *testing.T, w *deoptWorld) {
				res, f := w.s.SROs.Create(w.s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
				if f != nil {
					t.Fatal(f)
				}
				w.procs = append(w.procs, spawnProg(t, w.s, hotLoadLoop(60_000), SpawnSpec{AArgs: [4]obj.AD{res}}))
				w.s.SetInjector(&testInjector{at: 1_003})
			},
			budget: 4_001, steps: 40,
		},
		{
			// A short, odd time slice lands quantum expiry mid-loop over
			// and over; every preemption boundary must leave the context
			// exactly where the per-instruction reference would have.
			name: "quantum-expiry-on-fused-boundary",
			build: func(t *testing.T, w *deoptWorld) {
				res, f := w.s.SROs.Create(w.s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
				if f != nil {
					t.Fatal(f)
				}
				for i := 0; i < 2; i++ {
					w.procs = append(w.procs, spawnProg(t, w.s, hotLoadLoop(60_000),
						SpawnSpec{TimeSlice: 1_501, AArgs: [4]obj.AD{res}}))
				}
			},
			budget: 997, steps: 300,
		},
		{
			// A store and a load through an a-reg naming the running
			// context itself: the slow path writes the IP before the
			// operand access, so the load reads ip+1 — the run loop defers
			// IP writes and must refuse both on the self-reference guard
			// every time.
			name: "self-referential-store",
			build: func(t *testing.T, w *deoptWorld) {
				prog := []isa.Instr{
					isa.MovI(1, 60_000),
					isa.MovI(0, 9),
					isa.Add(0, 0, 2), // loop head (ip 2)
					isa.Sub(5, 0, 2),
					isa.Mul(6, 0, 2),
					isa.AddI(1, 1, ^uint32(0)),
					isa.Store(0, 2, process.CtxOffRegs+7*4), // writes own r7
					isa.Load(3, 2, process.CtxOffIP),        // reads own IP: 8
					isa.BrNZ(1, 2),
					isa.Halt(),
				}
				p := spawnProg(t, w.s, prog, SpawnSpec{})
				ctx, f := w.s.Procs.Context(p)
				if f != nil || !ctx.Valid() {
					t.Fatalf("spawned process has no context: %v", f)
				}
				setAReg(t, w.s, ctx, 2, ctx)
				w.procs = append(w.procs, p)
			},
			budget: 4_001, steps: 120,
		},
	}
}

// ctxIP reads the context IP of p, or ^uint32(0) when the process or its
// context is gone.
func ctxIP(s *System, p obj.AD) uint32 {
	ctx, f := s.Procs.Context(p)
	if f != nil || !ctx.Valid() {
		return ^uint32(0)
	}
	d, f := s.Table.Resolve(ctx)
	if f != nil || d.SwappedOut() {
		return ^uint32(0)
	}
	return winIP(s.Table.Memory().Window(d.Data()))
}

// cacheLive reports whether the (one) processor has a process bound and an
// execution cache current for it: the next execOne runs the loop, not a
// prime or the slow path.
func cacheLive(s *System) bool {
	cpu := s.CPUs[0]
	return cpu.proc.Valid() && cpu.xc.live(s, cpu)
}

func TestTraceDeoptParity(t *testing.T) {
	for i := range deoptScenarios() {
		sc := deoptScenarios()[i]
		t.Run(sc.name, func(t *testing.T) {
			ref := buildDeoptWorld(t, Config{NoExecCache: true}, &sc)
			cached := buildDeoptWorld(t, Config{}, &sc)
			warm := sc.steps / 3
			mutated := sc.mutate == nil
			// A scenario must not pass by running on the slow path: the
			// cached twin's cache is live at the mutation point (at some
			// step boundary, for a scenario without one).
			live := false
			for step := 0; step < sc.steps; step++ {
				live = live || cacheLive(cached.s)
				if !mutated && step >= warm &&
					(sc.mutateWhenIP == nil || ctxIP(cached.s, cached.procs[0]) == *sc.mutateWhenIP) {
					if !cacheLive(cached.s) {
						t.Fatalf("step %d: execution cache not live at the mutation point", step)
					}
					sc.mutate(t, ref)
					sc.mutate(t, cached)
					mutated = true
				}
				if _, f := ref.s.Step(sc.budget); f != nil {
					t.Fatalf("step %d (nocache): %v", step, f)
				}
				if _, f := cached.s.Step(sc.budget); f != nil {
					t.Fatalf("step %d (cache): %v", step, f)
				}
				a := deoptFingerprint(ref.s, ref.procs)
				b := deoptFingerprint(cached.s, cached.procs)
				if a != b {
					t.Fatalf("step %d: cached machine diverged\n--- nocache ---\n%s--- cache ---\n%s", step, a, b)
				}
			}
			if !mutated {
				t.Fatalf("mutation never fired: the machine never parked on IP %d", *sc.mutateWhenIP)
			}
			if !live {
				t.Fatal("execution cache never live at a step boundary")
			}
			if cacheLive(ref.s) {
				t.Fatal("NoExecCache system primed an execution cache")
			}
		})
	}
}
