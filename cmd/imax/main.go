// Command imax boots a configured iMAX-432 system and runs one of the
// built-in demonstration workloads, printing the system's own account of
// what happened. It is the smallest end-to-end drive of the stack:
// configuration (§6), dispatching and ports (§4–5), collection (§8).
//
// Usage:
//
//	imax [-cpus N] [-mem BYTES] [-swapping] [-gc] [-noxcache]
//	     [-demo NAME] [-trace] [-audit] [-itrace N] [-inspect]
//	     [-ledger FILE]
//	imax -inject SEED
//
// Demos: ports (default), compute, gc, io. The io demo writes through three
// device domains and reads back through them, and exits non-zero if what
// it read is not what was written or fed.
//
// -trace enables the kernel event log and prints its counters and tail
// after the workload; -audit runs the cross-subsystem invariant auditor
// and exits non-zero on any violation; -itrace prints the first N executed
// instructions in assembler syntax.
//
// -ledger FILE attaches the tamper-evident audit ledger to the trace
// stream, and at exit seals it, self-verifies the sealed bytes (structure,
// hash chain, Merkle root, per-kind counters against the live ring, the
// last event's inclusion proof and the first segment's consistency proof
// against the root) and writes them to FILE. The bytes are deterministic: two invocations with
// the same flags produce identical files, which CI checks with cmp.
//
// -inject runs the deterministic fault-injection acceptance protocol for
// the given seed instead of a demo: a fault-free reference run, then the
// seed's injection plan replayed in both {nocache, cache} corners,
// cross-checked for byte-identical traces, fault-port delivery,
// invariant-audit cleanliness, damage confinement, and the same confinement
// verdict re-derived from the sealed ledgers alone. Exits non-zero if any
// criterion fails.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/inject"
	"repro/internal/inspect"
	"repro/internal/iosys"
	"repro/internal/isa"
	"repro/internal/ledger"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/workload"
)

func main() {
	cpus := flag.Int("cpus", 2, "simulated processors")
	mem := flag.Uint64("mem", 16<<20, "physical memory bytes")
	swapping := flag.Bool("swapping", false, "select the swapping memory manager")
	gcOn := flag.Bool("gc", true, "run the on-the-fly collector daemon")
	noxcache := flag.Bool("noxcache", false, "disable the per-processor execution cache (results identical either way)")
	demo := flag.String("demo", "ports", "workload: ports | compute | gc | io")
	inspectFlag := flag.Bool("inspect", false, "dump the object population after the workload")
	traceFlag := flag.Bool("trace", false, "enable the kernel event log; print counters and tail at exit")
	auditFlag := flag.Bool("audit", false, "run the invariant auditor at exit; non-zero on violations")
	itrace := flag.Int("itrace", 0, "print the first N executed instructions")
	injectSeed := flag.Int64("inject", 0, "run the fault-injection acceptance protocol for this seed (0 = off)")
	ledgerFile := flag.String("ledger", "", "seal the audit ledger of the run, self-verify it and write its bytes to this file")
	flag.Parse()

	// Reject what the machine cannot be built from before building it:
	// MemoryBytes is 32 bits wide and gdp.New reads 0 processors as 1.
	runDemo, ok := demos[*demo]
	switch {
	case *cpus < 1:
		usageError("-cpus %d: need at least 1 processor", *cpus)
	case *mem > math.MaxUint32:
		usageError("-mem %d: at most %d bytes", *mem, uint32(math.MaxUint32))
	case !ok:
		usageError("-demo %q: want ports, compute, gc or io", *demo)
	}

	if *injectSeed != 0 {
		res, err := inject.RunSeed(*injectSeed)
		if err != nil {
			log.Fatal(err)
		}
		res.Report(os.Stdout)
		if !res.Ok() {
			os.Exit(1)
		}
		return
	}

	im, err := core.Boot(core.Config{
		Processors:  *cpus,
		MemoryBytes: uint32(*mem),
		Swapping:    *swapping,
		GC:          *gcOn,
		Filing:      true,
		Trace:       *traceFlag,
		Ledger:      *ledgerFile != "",
		NoExecCache: *noxcache,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iMAX-432: %d processors, %d KB memory, %s memory manager, gc=%v\n\n",
		len(im.CPUs), im.Table.Memory().Size()/1024, im.MM.Name(), im.Collector != nil)

	if *itrace > 0 {
		remaining := *itrace
		im.Trace = func(cpu int, proc obj.AD, ev gdp.TraceEvent) {
			if remaining <= 0 {
				return
			}
			remaining--
			status := ""
			if ev.Fault != nil {
				status = "  !! " + ev.Fault.Code.String()
			}
			fmt.Printf("  cpu%d %v ip=%-4d %-26v %v%s\n",
				cpu, proc, ev.IP, ev.Instr, ev.Cost, status)
		}
	}

	runDemo(im)

	st := im.Stats()
	fmt.Printf("\nsystem: %v elapsed, %d dispatches, %d preemptions, %d instructions, %d objects live\n",
		im.Now(), st.Dispatches, st.Preemptions, st.Instructions, im.Table.Live())
	if im.Collector != nil {
		g := im.Collector.Stats()
		fmt.Printf("collector: %d cycles, %d marked, %d reclaimed, %d filtered\n",
			g.Cycles, g.Marked, g.Reclaimed, g.Filtered)
	}
	if *inspectFlag {
		fmt.Println()
		inspect.Take(im.Table).Write(os.Stdout)
	}
	if *traceFlag {
		fmt.Println()
		inspect.WriteTrace(os.Stdout, im.TraceLog, 20)
	}
	if *auditFlag {
		fmt.Println()
		a := audit.New(im.System).WithGC(im.Collector)
		if inspect.WriteAudit(os.Stdout, a.CheckAll()) > 0 {
			os.Exit(1)
		}
	}
	if *ledgerFile != "" {
		if err := sealLedger(im, *ledgerFile); err != nil {
			log.Fatalf("imax: ledger: %v", err)
		}
	}
}

var demos = map[string]func(*core.IMAX){
	"ports":   demoPorts,
	"compute": demoCompute,
	"gc":      demoGC,
	"io":      demoIO,
}

// usageError reports a rejected flag value the way the flag package
// reports an unknown flag: one line on stderr, exit 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "imax: "+format+"\n", args...)
	os.Exit(2)
}

// sealLedger seals and self-verifies the run's audit ledger
// (core.IMAX.SealLedger: structure, hash chain, Merkle commitments, the
// replayed counters against the live trace ring) and checks one inclusion
// and one consistency proof against the root before writing the ledger to
// path.
func sealLedger(im *core.IMAX, path string) error {
	rep, err := im.SealLedger()
	if err != nil {
		return err
	}
	lg := im.Ledger
	// A root is worth recording elsewhere only if it proves what it commits
	// to: the last event's inclusion, and the first segment as a prefix of
	// the ledger (what a verifier holding an older root would ask for).
	if last := len(rep.Events) - 1; last >= 0 {
		p, err := rep.ProveEvent(last)
		if err != nil || !ledger.VerifyEvent(rep.Root, rep.Events[last], p) {
			return fmt.Errorf("inclusion proof of event %d does not verify: %v", last, err)
		}
		old, _ := rep.RootAt(1)
		proof, err := rep.ConsistencyProof(1)
		if err != nil || !ledger.VerifyConsistency(old, rep.Root, 1, len(rep.Segments), proof) {
			return fmt.Errorf("consistency proof of the first segment does not verify: %v", err)
		}
	}
	data := lg.Bytes()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nledger: %d segments, %d events (%d dropped), root %s -> %s (%d bytes, verified, proofs check)\n",
		lg.Segments(), lg.Recorded(), lg.Dropped(), lg.RootHex(), path, len(data))
	return nil
}

// must unwraps a result whose fault is fatal to the demo.
func must[T any](v T, f *obj.Fault) T {
	check(f)
	return v
}

func check(f *obj.Fault) {
	if f != nil {
		log.Fatal(f)
	}
}

func waitAll(im *core.IMAX, procs []obj.AD) {
	done := func() bool {
		for _, p := range procs {
			st, _ := im.Procs.StateOf(p)
			if st != process.StateTerminated {
				return false
			}
		}
		return true
	}
	if _, f := im.RunUntil(done, 2_000_000_000); f != nil {
		log.Fatalf("workload stuck: %v", f)
	}
}

// demoPorts: a ring of relay processes passing a token around.
func demoPorts(im *core.IMAX) {
	const hops = 6
	var ports []obj.AD
	for i := 0; i < hops; i++ {
		p := must(im.Ports.Create(im.Heap, 2, port.FIFO))
		ports = append(ports, p)
		check(im.Publish(uint32(i), p))
	}
	relay := must(workload.Domain(im.System, []isa.Instr{
		isa.MovI(4, 10), // laps
		isa.Recv(1, 2),
		isa.Load(0, 1, 0),
		isa.AddI(0, 0, 1),
		isa.Store(0, 1, 0),
		isa.MovI(5, 0),
		isa.Send(1, 3, 5),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 1),
		isa.Halt(),
	}))
	check(im.Publish(20, relay))
	var procs []obj.AD
	for i := 0; i < hops; i++ {
		p := must(im.Spawn(relay, gdp.SpawnSpec{
			TimeSlice: 2_000,
			AArgs:     [4]obj.AD{obj.NilAD, obj.NilAD, ports[i], ports[(i+1)%hops]},
		}))
		procs = append(procs, p)
		check(im.Publish(uint32(30+i), p))
	}
	token := must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}))
	if ok, f := im.SendMessage(ports[0], token, 0); f != nil || !ok {
		log.Fatal(f)
	}
	waitAll(im, procs)
	v, _ := im.Table.ReadDWord(token, 0)
	fmt.Printf("ports demo: token crossed %d process boundaries; counter = %d (want %d)\n",
		hops*10, v, hops*10)
}

// demoCompute: independent workers saturating every processor.
func demoCompute(im *core.IMAX) {
	workers := len(im.CPUs) * 4
	h := must(workload.Compute(im.System, workers, 20_000, 3_000))
	for i, p := range h.Procs {
		check(im.Publish(uint32(1+i), p))
	}
	waitAll(im, h.Procs)
	fmt.Printf("compute demo: %d workers over %d processors\n", workers, len(im.CPUs))
	for _, cpu := range im.CPUs {
		busy := cpu.Clock.Now() - cpu.IdleCycles
		fmt.Printf("  cpu %d: %d dispatches, %v busy, %v idle\n",
			cpu.ID, cpu.Dispatches, busy, cpu.IdleCycles)
	}
}

// demoGC: allocation churn with the daemon keeping up.
func demoGC(im *core.IMAX) {
	dom := must(workload.Domain(im.System, []isa.Instr{
		isa.MovI(4, 2_000),
		isa.MovI(2, 256),
		isa.MovI(3, 2),
		isa.Create(1, 0, 2),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 3),
		isa.Halt(),
	}))
	check(im.Publish(0, dom))
	p := must(im.Spawn(dom, gdp.SpawnSpec{TimeSlice: 2_000, AArgs: [4]obj.AD{im.Heap}}))
	check(im.Publish(1, p))
	before := im.Table.Live()
	waitAll(im, []obj.AD{p})
	if im.Collector == nil {
		must(im.Collect())
	} else {
		// Let the daemon finish a couple more cycles.
		target := im.Collector.Stats().Cycles + 2
		must(im.RunUntil(func() bool {
			return im.Collector.Stats().Cycles >= target
		}, 500_000_000))
	}
	fmt.Printf("gc demo: 2000 objects allocated and dropped; live %d -> %d\n",
		before, im.Table.Live())
}

// demoIO: one writer program and one reader program, run against three
// device instances through the same device-independent entries.
func demoIO(im *core.IMAX) {
	const text, typed, max = "uniform I/O via domains\n", "typed at the console\n", 32
	console := iosys.NewConsole()
	tape := iosys.NewTape(1 << 16)
	disk := iosys.NewDisk(32, 512)
	console.FeedInput([]byte(typed))
	devs := []obj.AD{
		must(iosys.InstallConsole(im.Domains, im.Heap, console)),
		must(iosys.InstallTape(im.Domains, im.Heap, tape)),
		must(iosys.InstallDisk(im.Domains, im.Heap, disk)),
	}
	buf := must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: uint32(len(text))}))
	check(im.Table.WriteBytes(buf, 0, []byte(text)))
	// a2 = buffer, a3 = device. r3 is 1 on a tape, which closes what it
	// wrote with an end-of-file mark (a tape-class entry), and 0 elsewhere.
	writer := must(workload.Domain(im.System, []isa.Instr{
		isa.MovI(1, 0),
		isa.MovI(2, uint32(len(text))),
		isa.MovA(1, 2),
		isa.Call(3, iosys.EntryWrite),
		isa.BrZ(3, 6),
		isa.Call(3, iosys.EntryTapeMark),
		isa.Halt(),
	}))
	// a0 = results, a2 = buffer, a3 = device. r3 is 1 where entry 3
	// repositions the medium (REWIND on a tape, SEEK to block r1 on a
	// disk). Two reads, then STATUS: the byte counts and the status word
	// land in the results object.
	reader := must(workload.Domain(im.System, []isa.Instr{
		isa.MovI(1, 0),
		isa.MovA(1, 2),
		isa.BrZ(3, 4),
		isa.Call(3, iosys.EntryTapeRewind),
		isa.MovI(2, max),
		isa.Call(3, iosys.EntryRead),
		isa.Mov(4, 0),
		isa.MovI(1, max),
		isa.Call(3, iosys.EntryRead),
		isa.Mov(5, 0),
		isa.Call(3, iosys.EntryStatus),
		isa.Store(4, 0, 0),
		isa.Store(5, 0, 4),
		isa.Store(0, 0, 8),
		isa.Halt(),
	}))
	for slot, ad := range append(devs, buf, writer, reader) {
		check(im.Publish(uint32(slot), ad))
	}
	// run spawns dom once per device with r3, a0 and a2 as given.
	run := func(dom obj.AD, r3 [3]uint32, a0, a2 [3]obj.AD) {
		var procs []obj.AD
		for i, dev := range devs {
			p := must(im.Spawn(dom, gdp.SpawnSpec{
				Args:  [4]uint32{0, 0, 0, r3[i]},
				AArgs: [4]obj.AD{a0[i], obj.NilAD, a2[i], dev},
			}))
			procs = append(procs, p)
			check(im.Publish(uint32(10+i), p))
		}
		waitAll(im, procs)
	}
	run(writer, [3]uint32{0, 1, 0}, [3]obj.AD{}, [3]obj.AD{buf, buf, buf})
	var results, inputs [3]obj.AD
	for i := range devs {
		results[i] = must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 12}))
		inputs[i] = must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 2 * max}))
		check(im.Publish(uint32(20+2*i), results[i]))
		check(im.Publish(uint32(21+2*i), inputs[i]))
	}
	run(reader, [3]uint32{0, 1, 1}, results, inputs)

	fmt.Printf("io demo: one writer program and one reader program, three device instances\n")
	fmt.Printf("  console: %q\n", console.Output())
	for i, name := range []string{"console", "tape", "disk"} {
		first := must(im.Table.ReadDWord(results[i], 0))
		second := must(im.Table.ReadDWord(results[i], 4))
		status := must(im.Table.ReadDWord(results[i], 8))
		got := must(im.Table.ReadBytes(inputs[i], 0, first))
		want := text
		if i == 0 {
			want = typed
		}
		if !strings.HasPrefix(string(got), want) || status>>8 != uint32(i+1) {
			log.Fatalf("%s read back %q with status %#x, want %q from class %d", name, got, status, want, i+1)
		}
		fmt.Printf("  %-7s: read %d bytes beginning %q, then %d; status %#x (class %d)\n",
			name, first, want, second, status, status>>8)
	}
	if st := must(im.Table.ReadDWord(results[1], 8)); st&iosys.FlagEOF == 0 {
		log.Fatalf("tape status %#x after reading past its mark: no end-of-file", st)
	}
}
