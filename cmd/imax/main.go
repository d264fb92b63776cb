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
// Demos: ports (default), compute, gc, io.
//
// -trace enables the kernel event log and prints its counters and tail
// after the workload; -audit runs the cross-subsystem invariant auditor
// and exits non-zero on any violation; -itrace prints the first N executed
// instructions.
//
// -ledger FILE attaches the tamper-evident audit ledger to the trace
// stream, and at exit seals it, self-verifies the sealed bytes (structure,
// hash chain, Merkle root, per-kind counters against the live ring) and
// writes them to FILE. The bytes are deterministic: two invocations with
// the same flags produce identical files, which CI checks with cmp.
//
// -inject runs the deterministic fault-injection acceptance protocol for
// the given seed instead of a demo: a fault-free reference run, then the
// seed's injection plan replayed in both {nocache, cache} corners,
// cross-checked for byte-identical traces, fault-port delivery,
// invariant-audit cleanliness and damage confinement. Exits non-zero if
// any criterion fails.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

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
	"repro/internal/trace"
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
			fmt.Printf("  cpu%d %v ip=%-4d %-20v %v%s\n",
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

// sealLedger closes the run's audit ledger, verifies the sealed bytes
// from scratch (structure, hash chain, Merkle commitments) and
// cross-checks the replayed counters against the live trace ring before
// writing the ledger to path.
func sealLedger(im *core.IMAX, path string) error {
	lg := im.Ledger
	lg.Close()
	data := lg.Bytes()
	rep, err := ledger.Verify(data)
	if err != nil {
		return fmt.Errorf("sealed ledger does not verify: %w", err)
	}
	if rep.Root != lg.Root() {
		return fmt.Errorf("replay root %x != sink root %s", rep.Root, lg.RootHex())
	}
	seq, counts := im.TraceLog.Snapshot()
	if lg.Dropped() == 0 && uint64(len(rep.Events)) != seq {
		return fmt.Errorf("ledger holds %d events, ring emitted %d", len(rep.Events), seq)
	}
	for k, n := range counts {
		var got uint64
		if k < len(rep.Counts) {
			got = rep.Counts[k]
		}
		if k < len(rep.Dropped) {
			got += rep.Dropped[k]
		}
		if got != n {
			return fmt.Errorf("kind %v: ledger accounts for %d events, ring counted %d", trace.Kind(k), got, n)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nledger: %d segments, %d events (%d dropped), root %s -> %s (%d bytes, verified)\n",
		lg.Segments(), lg.Recorded(), lg.Dropped(), lg.RootHex(), path, len(data))
	return nil
}

func mustDomain(im *core.IMAX, prog []isa.Instr) obj.AD {
	code, f := im.Domains.CreateCode(im.Heap, prog)
	if f != nil {
		log.Fatal(f)
	}
	dom, f := im.Domains.Create(im.Heap, code, []uint32{0})
	if f != nil {
		log.Fatal(f)
	}
	return dom
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
		p, f := im.Ports.Create(im.Heap, 2, port.FIFO)
		if f != nil {
			log.Fatal(f)
		}
		ports = append(ports, p)
		if f := im.Publish(uint32(i), p); f != nil {
			log.Fatal(f)
		}
	}
	relay := mustDomain(im, []isa.Instr{
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
	})
	if f := im.Publish(20, relay); f != nil {
		log.Fatal(f)
	}
	var procs []obj.AD
	for i := 0; i < hops; i++ {
		p, f := im.Spawn(relay, gdp.SpawnSpec{
			TimeSlice: 2_000,
			AArgs:     [4]obj.AD{obj.NilAD, obj.NilAD, ports[i], ports[(i+1)%hops]},
		})
		if f != nil {
			log.Fatal(f)
		}
		procs = append(procs, p)
		if f := im.Publish(uint32(30+i), p); f != nil {
			log.Fatal(f)
		}
	}
	token, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		log.Fatal(f)
	}
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
	dom := mustDomain(im, []isa.Instr{
		isa.MovI(1, 20_000),
		isa.AddI(1, 1, ^uint32(0)),
		isa.BrNZ(1, 1),
		isa.Halt(),
	})
	if f := im.Publish(0, dom); f != nil {
		log.Fatal(f)
	}
	var procs []obj.AD
	for i := 0; i < workers; i++ {
		p, f := im.Spawn(dom, gdp.SpawnSpec{TimeSlice: 3_000})
		if f != nil {
			log.Fatal(f)
		}
		procs = append(procs, p)
		if f := im.Publish(uint32(1+i), p); f != nil {
			log.Fatal(f)
		}
	}
	waitAll(im, procs)
	fmt.Printf("compute demo: %d workers over %d processors\n", workers, len(im.CPUs))
	for _, cpu := range im.CPUs {
		busy := cpu.Clock.Now() - cpu.IdleCycles
		fmt.Printf("  cpu %d: %d dispatches, %v busy, %v idle\n",
			cpu.ID, cpu.Dispatches, busy, cpu.IdleCycles)
	}
}

// demoGC: allocation churn with the daemon keeping up.
func demoGC(im *core.IMAX) {
	dom := mustDomain(im, []isa.Instr{
		isa.MovI(4, 2_000),
		isa.MovI(2, 256),
		isa.MovI(3, 2),
		isa.Create(1, 0, 2),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 3),
		isa.Halt(),
	})
	if f := im.Publish(0, dom); f != nil {
		log.Fatal(f)
	}
	p, f := im.Spawn(dom, gdp.SpawnSpec{TimeSlice: 2_000, AArgs: [4]obj.AD{im.Heap}})
	if f != nil {
		log.Fatal(f)
	}
	if f := im.Publish(1, p); f != nil {
		log.Fatal(f)
	}
	before := im.Table.Live()
	waitAll(im, []obj.AD{p})
	if im.Collector == nil {
		if _, f := im.Collect(); f != nil {
			log.Fatal(f)
		}
	} else {
		// Let the daemon finish a couple more cycles.
		target := im.Collector.Stats().Cycles + 2
		if _, f := im.RunUntil(func() bool {
			return im.Collector.Stats().Cycles >= target
		}, 500_000_000); f != nil {
			log.Fatal(f)
		}
	}
	fmt.Printf("gc demo: 2000 objects allocated and dropped; live %d -> %d\n",
		before, im.Table.Live())
}

// demoIO: the same program writing through three different devices.
func demoIO(im *core.IMAX) {
	console := iosys.NewConsole()
	tape := iosys.NewTape(1 << 16)
	disk := iosys.NewDisk(32, 512)
	devs := make([]obj.AD, 3)
	var f *obj.Fault
	if devs[0], f = iosys.InstallConsole(im.Domains, im.Heap, console); f != nil {
		log.Fatal(f)
	}
	if devs[1], f = iosys.InstallTape(im.Domains, im.Heap, tape); f != nil {
		log.Fatal(f)
	}
	if devs[2], f = iosys.InstallDisk(im.Domains, im.Heap, disk); f != nil {
		log.Fatal(f)
	}
	text := "uniform I/O via domains\n"
	buf, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: uint32(len(text))})
	if f != nil {
		log.Fatal(f)
	}
	if f := im.Table.WriteBytes(buf, 0, []byte(text)); f != nil {
		log.Fatal(f)
	}
	writer := mustDomain(im, []isa.Instr{
		isa.MovI(1, 0),
		isa.MovI(2, uint32(len(text))),
		isa.MovA(1, 2),
		isa.Call(3, iosys.EntryWrite),
		isa.Halt(),
	})
	for slot, ad := range append(devs, buf, writer) {
		if f := im.Publish(uint32(slot), ad); f != nil {
			log.Fatal(f)
		}
	}
	var procs []obj.AD
	for _, dev := range devs {
		p, f := im.Spawn(writer, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, buf, dev}})
		if f != nil {
			log.Fatal(f)
		}
		procs = append(procs, p)
		if f := im.Publish(uint32(10+len(procs)), p); f != nil {
			log.Fatal(f)
		}
	}
	waitAll(im, procs)
	fmt.Printf("io demo: one writer program, three device instances\n")
	fmt.Printf("  console: %q\n", console.Output())
	st := tape.Status()
	fmt.Printf("  tape   : status %#x (class %d)\n", st, st>>8)
	fmt.Printf("  disk   : block 0 begins %q\n", firstBytes(disk))
}

func firstBytes(d *iosys.Disk) string {
	p := make([]byte, 8)
	_ = d.Seek(0)
	n, _ := d.Read(p)
	return string(p[:n])
}
