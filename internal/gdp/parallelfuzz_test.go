package gdp_test

// Differential fuzzing of the interpreter's fast paths (external test
// package so the cross-subsystem invariant auditor can join the
// comparison): the same seeded workload is run to completion at the two
// corners {nocache, cache}, and any divergence from the uncached reference
// interpreter — in the kernel event log bytes, per-processor clocks,
// system stats, live-object census, or the audit report — is a bug in the
// execution cache. The file,
// the corpus (testdata/parallel_corpus.txt) and TestParallelDifferentialFuzz
// keep the names they had when the matrix also had a host-parallel axis:
// the seeds were selected against that backend, and the test ids are the
// ones the regression floor lists.

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/ledger"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/trace"
)

// callSeedBase is the first seed whose mix also gets a caller: a process
// that makes VM domain calls in a loop. The shapes below make none, and
// their seeds stay what the serial witness pinned.
const callSeedBase = 920_000_000

// buildFuzzSystem constructs a system plus a seed-determined workload mix:
// pure compute loops, port spammers and drainers on a shared port, and a
// spread of time slices (preemption traffic) across 2..4 processors; from
// callSeedBase on, one process more that calls and returns (a PushContext
// and a PopContext on the bound process per iteration: every instruction
// after either must execute in the context the process object then names).
// Identical seeds produce identical construction sequences, so builds at
// different corners are twins. lcfg configures the audit ledger behind the
// tracer — the overload-determinism test cuts small segments to keep the
// seal window full.
func buildFuzzSystem(t *testing.T, seed int64, c fuzzCorner, lcfg ledger.Config) *gdp.System {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := gdp.New(gdp.Config{
		Processors:  2 + rng.Intn(3),
		MemoryBytes: 8 << 20,
		NoExecCache: c.nocache,
	})
	if err != nil {
		t.Fatal(err)
	}
	lg := trace.New(1 << 17)
	lg.SetSink(ledger.NewSink(lcfg))
	s.SetTracer(lg)

	shared, f := s.Ports.Create(s.Heap, 512, port.FIFO)
	if f != nil {
		t.Fatal(f)
	}
	nproc := 3 + rng.Intn(5)
	for i := 0; i < nproc; i++ {
		result, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			t.Fatal(f)
		}
		iters := uint32(300 + rng.Intn(2500))
		aargs := [4]obj.AD{result, shared}
		var prog []isa.Instr
		switch rng.Intn(5) {
		case 0: // pure compute: sum the countdown
			prog = []isa.Instr{
				isa.MovI(1, iters),
				isa.MovI(0, 0),
				isa.Add(0, 0, 1),
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 2),
				isa.Store(0, 0, 0),
				isa.Halt(),
			}
		case 1: // compute, then offer the result object at the shared port
			prog = []isa.Instr{
				isa.MovI(1, iters),
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 1),
				isa.CSend(0, 1, 2), // full port drops the offer
				isa.Halt(),
			}
		case 2: // drain the shared port between compute bursts
			prog = []isa.Instr{
				isa.MovI(1, iters),
				isa.CRecv(2, 1, 3), // whatever is there, if anything
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 1),
				isa.Halt(),
			}
		case 3: // a hot loop that self-modifies its own invalidation
			// triggers: the per-iteration CSend's carrier traffic keeps
			// bumping the cache generation under the cached run loop, and
			// the epilogue nils the a-reg the loop loads through, then
			// jumps back in — the run must stop at the load and land on
			// the canonical dangling-AD fault.
			prog = []isa.Instr{
				isa.MovI(1, iters),
				isa.MovI(2, 3),
				isa.Add(4, 4, 2), // loop head
				isa.Sub(5, 4, 2),
				isa.Mul(6, 4, 2),
				isa.AddI(1, 1, ^uint32(0)),
				isa.Load(3, 0, 0),  // result[0]; refused once a0 is nil
				isa.CSend(0, 1, 7), // offer result; full port drops it
				isa.BrNZ(1, 2),
				isa.MovA(0, 2), // a0 ← nil (a2 was never filled)
				isa.MovI(1, 60),
				isa.Br(2), // back into the hot loop
				isa.Halt(),
			}
		case 4: // the paper's E2 allocate shape: a tight create loop with a
			// bystander read each iteration. Every create pops the free-slot
			// list and first-fits an extent, so which slot each object lands
			// in is part of what the serial witness's census pins.
			aargs[2] = s.Heap
			prog = []isa.Instr{
				isa.MovI(1, 200+iters/8),
				isa.MovI(2, 24),
				isa.Create(3, 2, 2), // loop head: a3 ← new object from a2
				isa.Store(1, 3, 0),  // initialise it
				isa.Load(4, 0, 0),   // bystander read of the result object
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 2),
				isa.Store(4, 0, 0),
				isa.Halt(),
			}
		}
		dom, f := s.Domains.CreateCode(s.Heap, prog)
		if f != nil {
			t.Fatal(f)
		}
		d, f := s.Domains.Create(s.Heap, dom, []uint32{0})
		if f != nil {
			t.Fatal(f)
		}
		slices := []uint32{0, 0, 1_500, 4_000}
		if _, f := s.Spawn(d, gdp.SpawnSpec{
			Priority:  uint16(rng.Intn(4)),
			TimeSlice: slices[rng.Intn(len(slices))],
			AArgs:     aargs,
		}); f != nil {
			t.Fatal(f)
		}
	}
	if seed >= callSeedBase {
		spawnFuzzCaller(t, s, rng, shared)
	}
	return s
}

// spawnFuzzCaller adds the caller of seeds from callSeedBase on: a loop of
// domain calls into a VM callee that computes on its arguments, reads the
// caller's result object and returns, with an offer at the shared port
// between calls, under a time slice short enough to preempt it inside the
// callee.
func spawnFuzzCaller(t *testing.T, s *gdp.System, rng *rand.Rand, shared obj.AD) {
	t.Helper()
	domainOf := func(prog []isa.Instr) obj.AD {
		code, f := s.Domains.CreateCode(s.Heap, prog)
		if f != nil {
			t.Fatal(f)
		}
		d, f := s.Domains.Create(s.Heap, code, []uint32{0})
		if f != nil {
			t.Fatal(f)
		}
		return d
	}
	result, f := s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	callee := domainOf([]isa.Instr{
		isa.MovI(4, 25),
		isa.AddI(0, 0, 3), // loop head; r0 goes back to the caller
		isa.Load(5, 0, 4), // the caller's a0, copied across
		isa.Add(0, 0, 5),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 1),
		isa.Ret(),
	})
	caller := domainOf([]isa.Instr{
		isa.MovI(1, uint32(40+rng.Intn(120))),
		isa.Call(2, 0), // loop head
		isa.Store(0, 0, 4),
		isa.CSend(0, 1, 7), // offer result; full port drops it
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 1),
		isa.Store(0, 0, 0),
		isa.Halt(),
	})
	if _, f := s.Spawn(caller, gdp.SpawnSpec{
		Priority:  uint16(rng.Intn(4)),
		TimeSlice: []uint32{0, 700, 1_500}[rng.Intn(3)],
		AArgs:     [4]obj.AD{result, shared, callee},
	}); f != nil {
		t.Fatal(f)
	}
}

// runFuzz drives the system through a mixed cadence of short steps (to
// exercise quantum boundaries at odd offsets) and a final drain to idle.
func runFuzz(t *testing.T, s *gdp.System) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if _, f := s.Step(3_000); f != nil {
			t.Fatal(f)
		}
	}
	if _, f := s.Run(0); f != nil {
		t.Fatal(f)
	}
}

func fuzzFingerprint(t *testing.T, s *gdp.System) string {
	t.Helper()
	var b bytes.Buffer
	for _, cpu := range s.CPUs {
		fmt.Fprintf(&b, "cpu%d clock=%d idle=%d disp=%d instr=%d\n",
			cpu.ID, cpu.Clock.Now(), cpu.IdleCycles, cpu.Dispatches, cpu.Instructions)
	}
	st := s.Stats()
	st.Primes = 0 // the one count the corners differ in by design: nocache never binds
	fmt.Fprintf(&b, "stats=%+v live=%d now=%d total=%d\n",
		st, s.Table.Live(), s.Now(), s.TotalCycles())
	for _, v := range audit.New(s).CheckAll() {
		fmt.Fprintf(&b, "violation: %s %v %s\n", v.Subsystem, v.Obj, v.Msg)
	}
	if sk := fuzzLedger(t, s); sk != nil {
		fmt.Fprintf(&b, "ledger root=%s segments=%d recorded=%d dropped=%d\n",
			sk.RootHex(), sk.Segments(), sk.Recorded(), sk.Dropped())
	}
	if err := s.Tracer().Dump(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// fuzzLedger seals and returns the system's audit-ledger sink (nil when
// the tracer has none). Close is idempotent, so fingerprinting and byte
// extraction can both call this.
func fuzzLedger(t *testing.T, s *gdp.System) *ledger.Sink {
	t.Helper()
	sk, ok := s.Tracer().Sink().(*ledger.Sink)
	if !ok {
		return nil
	}
	sk.Close()
	return sk
}

// corpusSeeds loads the differential-fuzz seed corpus. Any defect in the
// corpus — missing file, unparsable line, duplicate seed, zero usable
// seeds — is a loud failure, never a skip: a fuzz that silently runs
// nothing is worse than one that fails, because it keeps reporting green
// while covering no configuration at all.
func corpusSeeds(t *testing.T) []int64 {
	t.Helper()
	const path = "testdata/parallel_corpus.txt"
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("differential-fuzz corpus unreadable (it is checked in at internal/gdp/%s): %v", path, err)
	}
	defer f.Close()
	var seeds []int64
	seen := make(map[int64]int)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("%s:%d: malformed seed %q (one decimal int64 per line): %v", path, lineNo, line, err)
		}
		if first, dup := seen[n]; dup {
			t.Fatalf("%s:%d: duplicate seed %d (first on line %d) — duplicates inflate apparent coverage", path, lineNo, n, first)
		}
		seen[n] = lineNo
		seeds = append(seeds, n)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: read error: %v", path, err)
	}
	if len(seeds) == 0 {
		t.Fatalf("%s: no seeds — the differential fuzz would be a no-op", path)
	}
	return seeds
}

// fuzzCorner is one cache configuration of the interpreter.
type fuzzCorner struct {
	name    string
	nocache bool
}

// fuzzCorners is the matrix. The uncached run is the reference semantics;
// the cached run loop (xcache.go) must reproduce its fingerprint byte for
// byte.
var fuzzCorners = []fuzzCorner{
	{"nocache", true},
	{"cache", false},
}

// TestParallelDifferentialFuzz runs every corpus seed at both corners.
// Each corner must land on the pinned serial witness (witness_test.go), and
// the cached corner must also match the reference corner's full
// fingerprint — which adds the audit report and the system stats to what
// the witness hashes.
func TestParallelDifferentialFuzz(t *testing.T) {
	want := loadWitness(t)
	seeds := corpusSeeds(t)
	if len(want) != len(seeds) {
		t.Errorf("%s pins %d seeds, the corpus has %d", witnessPath, len(want), len(seeds))
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var ref string
			for i, c := range fuzzCorners {
				s := buildFuzzSystem(t, seed, c, ledger.Config{})
				runFuzz(t, s)
				if got := fuzzWitness(t, s); got != want[seed] {
					t.Errorf("%s moved off the serial witness for seed %d:\n got %s\nwant %s",
						c.name, seed, got, want[seed])
				}
				fp := fuzzFingerprint(t, s)
				if i == 0 {
					ref = fp
				} else if fp != ref {
					t.Fatalf("%s diverged from %s for seed %d:\n--- reference ---\n%.2000s\n--- %s ---\n%.2000s",
						c.name, fuzzCorners[0].name, seed, ref, c.name, fp)
				}
			}
		})
	}
}

// TestLedgerOverloadDeterminism overloads the audit ledger the one way it
// can be: segments of 4 records are cut faster than their bodies hash, so
// the emitter fills the seal window and waits on it, under both corners of
// every corpus seed. Admission and cuts are a function of the event stream,
// never of host timing, so the ledger must come out byte-identical between
// the uncached and the cached interpreter, every emitted event in it.
func TestLedgerOverloadDeterminism(t *testing.T) {
	small := ledger.Config{SegmentEvents: 4}
	for _, seed := range corpusSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var refBytes []byte
			for i, c := range fuzzCorners {
				s := buildFuzzSystem(t, seed, c, small)
				runFuzz(t, s)
				sk := fuzzLedger(t, s)
				seq, _ := s.Tracer().Snapshot()
				if sk.Recorded() != seq || sk.Dropped() != 0 {
					t.Fatalf("%s: recorded %d and dropped %d of %d emitted",
						c.name, sk.Recorded(), sk.Dropped(), seq)
				}
				b := sk.Bytes()
				if i == 0 {
					refBytes = b
					rep, err := ledger.Verify(b)
					if err != nil {
						t.Fatalf("ledger failed verification: %v", err)
					}
					if uint64(len(rep.Events)) != seq || len(rep.Segments) <= 8 {
						t.Fatalf("replayed %d of %d events in %d segments; the window holds 8",
							len(rep.Events), seq, len(rep.Segments))
					}
				} else if !bytes.Equal(b, refBytes) {
					t.Fatalf("%s: ledger bytes diverged from %s", c.name, fuzzCorners[0].name)
				}
			}
		})
	}
}
