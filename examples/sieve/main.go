// Sieve: a complete program for the simulated 432 written in assembly
// text rather than Go slice literals — the Eratosthenes sieve, with the
// indexed flag accesses provided by a tiny native "kernel" domain the
// sieve calls like any other subprogram (§4 of the paper: native and VM
// subprograms are indistinguishable to the caller). It exercises the
// assembler (internal/asm), nested loops, cross-domain calls, and data
// objects, all on one simulated processor.
//
// Run with: go run ./examples/sieve
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/gdp"
	"repro/internal/obj"
	"repro/internal/process"
)

const limit = 1000

// Register plan: r1 = p, r5 = q, r2 = prime count, r7 = the bound.
// a1 = result object, a3 = kernel domain (entry 1 marks flag[r0],
// entry 2 loads flag[r0] into r0). The ISA has immediate-only store
// displacements, so indexed access goes through the kernel call.
const source = `
        movi  r1, 2            ; p = 2
outer:  movi  r7, 1000
        brlt  r1, r7, mark     ; while p < limit
        br    count
mark:   mul   r5, r1, r1       ; q = p*p
inner:  movi  r7, 1000
        brlt  r5, r7, domark   ; while q < limit
        br    next
domark: mov   r0, r5
        call  a3, 1            ; flag[q] = 1
        add   r5, r5, r1       ; q += p
        br    inner
next:   addi  r1, r1, 1        ; p++
        br    outer

count:  movi  r1, 2
        movi  r2, 0
cloop:  movi  r7, 1000
        brlt  r1, r7, ctest
        br    done
ctest:  mov   r0, r1
        call  a3, 2            ; r0 = flag[r1]
        brnz  r0, cskip
        addi  r2, r2, 1        ; unmarked: a prime
cskip:  addi  r1, r1, 1
        br    cloop
done:   store r2, a1, 0        ; result = count
        halt
`

func main() {
	im, err := core.Boot(core.Config{Processors: 1})
	if err != nil {
		log.Fatal(err)
	}

	prog, err := asm.Assemble(source)
	if err != nil {
		log.Fatal(err)
	}
	code, f := im.Domains.CreateCode(im.Heap, prog.Instrs)
	if f != nil {
		log.Fatal(f)
	}
	dom, f := im.Domains.Create(im.Heap, code, []uint32{0})
	if f != nil {
		log.Fatal(f)
	}

	flags, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: limit})
	if f != nil {
		log.Fatal(f)
	}
	result, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		log.Fatal(f)
	}

	kernel, f := im.Domains.CreateNative(im.Heap, 3, func(env *domain.Env, entry uint32) *obj.Fault {
		var c process.Ctx
		env.Procs.OpenContext(env.Ctx, obj.RightRead, &c)
		q := c.Reg(0)
		if f := c.Fault(); f != nil || q >= limit {
			return f
		}
		switch entry {
		case 1:
			return env.Table.WriteByteAt(flags, q, 1)
		case 2:
			v, f := env.Table.ReadByteAt(flags, q)
			c.Latch(f)
			c.SetReg(0, uint32(v))
		}
		return c.Fault()
	})
	if f != nil {
		log.Fatal(f)
	}

	for slot, ad := range []obj.AD{dom, flags, result, kernel} {
		if f := im.Publish(uint32(slot), ad); f != nil {
			log.Fatal(f)
		}
	}
	p, f := im.Spawn(dom, gdp.SpawnSpec{
		TimeSlice: 10_000,
		AArgs:     [4]obj.AD{flags, result, obj.NilAD, kernel},
	})
	if f != nil {
		log.Fatal(f)
	}
	if f := im.Publish(10, p); f != nil {
		log.Fatal(f)
	}

	done := func() bool {
		st, _ := im.Procs.StateOf(p)
		return st == process.StateTerminated
	}
	elapsed, f := im.RunUntil(done, 5_000_000_000)
	if f != nil {
		c, _ := im.Procs.FaultCode(p)
		log.Fatalf("sieve stuck: %v (fault %v)", f, c)
	}
	count, _ := im.Table.ReadDWord(result, 0)

	fmt.Printf("sieve: primes below %d = %d (expected 168)\n", limit, count)
	fmt.Printf("  assembled %d instructions; ran %d instructions in %v\n",
		len(prog.Instrs), im.Stats().Instructions, elapsed)
	if count != 168 {
		log.Fatalf("wrong prime count: %d", count)
	}
}
