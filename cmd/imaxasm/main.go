// Command imaxasm assembles a program for the simulated 432 and runs it
// to completion on a fresh system, printing the machine's account of the
// run. The program's entry is label "main" if present, else instruction 0.
//
// Usage:
//
//	imaxasm [-cpus N] [-trace N] [-data BYTES] prog.s
//
// -trace N prints the assembled listing, then the first N executed
// instructions.
//
// The program receives one scratch data object in a0 (size -data) and the
// system global heap SRO in a1. Whatever it leaves in the first dword of
// the scratch object is printed as its result.
//
// Example program (sum 1..10):
//
//	        movi  r1, 10
//	        movi  r0, 0
//	loop:   add   r0, r0, r1
//	        addi  r1, r1, -1
//	        brnz  r1, loop
//	        store r0, a0, 0
//	        halt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/obj"
	"repro/internal/process"
)

func main() {
	cpus := flag.Int("cpus", 1, "simulated processors")
	traceN := flag.Int("trace", 0, "print the first N executed instructions")
	dataBytes := flag.Uint("data", 256, "size of the scratch object in a0")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: imaxasm [flags] prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		fatal(err)
	}
	entry := uint32(0)
	if ip, err := prog.Entry("main"); err == nil {
		entry = ip
	}

	im, err := core.Boot(core.Config{Processors: *cpus})
	if err != nil {
		fatal(err)
	}
	if *traceN > 0 {
		fmt.Print(asm.Disassemble(prog.Instrs))
		remaining := *traceN
		im.Trace = func(cpu int, proc obj.AD, ev gdp.TraceEvent) {
			if remaining <= 0 {
				return
			}
			remaining--
			status := ""
			if ev.Fault != nil {
				status = "  !! " + ev.Fault.Code.String()
			}
			fmt.Printf("  cpu%d ip=%-4d %-26v %v%s\n", cpu, ev.IP, ev.Instr, ev.Cost, status)
		}
	}
	code, f := im.Domains.CreateCode(im.Heap, prog.Instrs)
	if f != nil {
		fatal(f)
	}
	dom, f := im.Domains.Create(im.Heap, code, []uint32{entry})
	if f != nil {
		fatal(f)
	}
	scratch, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: uint32(*dataBytes)})
	if f != nil {
		fatal(f)
	}
	for slot, ad := range []obj.AD{dom, scratch} {
		if f := im.Publish(uint32(slot), ad); f != nil {
			fatal(f)
		}
	}
	p, f := im.Spawn(dom, gdp.SpawnSpec{
		TimeSlice: 10_000,
		AArgs:     [4]obj.AD{scratch, im.Heap},
	})
	if f != nil {
		fatal(f)
	}
	if f := im.Publish(2, p); f != nil {
		fatal(f)
	}
	done := func() bool {
		st, _ := im.Procs.StateOf(p)
		return st == process.StateTerminated || st == process.StateFaulted
	}
	elapsed, f := im.RunUntil(done, 10_000_000_000)
	if f != nil {
		fatal(f)
	}
	st, _ := im.Procs.StateOf(p)
	if st == process.StateFaulted {
		c, _ := im.Procs.FaultCode(p)
		fmt.Fprintf(os.Stderr, "imaxasm: program faulted: %v\n", c)
		os.Exit(1)
	}
	v, _ := im.Table.ReadDWord(scratch, 0)
	fmt.Printf("result: %d (scratch[0])\n", v)
	fmt.Printf("%d instructions assembled, %d executed, %v virtual time\n",
		len(prog.Instrs), im.Stats().Instructions, elapsed)
}

func fatal(err any) {
	fmt.Fprintln(os.Stderr, "imaxasm:", err)
	os.Exit(1)
}
