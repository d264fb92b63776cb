package asm

import (
	"strings"
	"testing"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
)

func TestAssembleBasics(t *testing.T) {
	p, err := Assemble(`
		; a countdown loop
		        movi  r4, 3
		loop:   addi  r4, r4, -1
		        brnz  r4, loop
		        halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := []isa.Instr{
		isa.MovI(4, 3),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 1),
		isa.Halt(),
	}
	if len(p.Instrs) != len(want) {
		t.Fatalf("assembled %d instrs", len(p.Instrs))
	}
	for i := range want {
		if p.Instrs[i] != want[i] {
			t.Errorf("instr %d: got %v want %v", i, p.Instrs[i], want[i])
		}
	}
	if ip, _ := p.Entry("loop"); ip != 1 {
		t.Errorf("loop = %d", ip)
	}
}

func TestForwardReferences(t *testing.T) {
	p, err := Assemble(`
		        brz r0, done
		        movi r1, 1
		done:   halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].C != 2 {
		t.Fatalf("forward branch target = %d", p.Instrs[0].C)
	}
}

func TestAllMnemonicsRoundTrip(t *testing.T) {
	// One line per mnemonic; everything must assemble.
	src := `
		nop
		movi   r0, 0x10
		mov    r1, r0
		add    r2, r1, r0
		addi   r2, r2, 5
		sub    r3, r2, r1
		mul    r3, r3, r2
		br     next
	next:	brz    r0, next
		brnz   r1, next
		brlt   r0, r1, next
		load   r4, a1, 8
		store  r4, a1, 12
		loada  a2, a1, 0
		storea a2, a1, 1
		mova   a3, a2
		create a1, a0, r2
		send   a1, a2, r5
		recv   a1, a2
		csend  a1, a2, r6
		crecv  a1, a2, r6
		call   a1, 2
		calll  1
		ret
		typeof r7, a1
		amplify a1, a2, 3
		istype r6, a1, a2
		fault  5
		halt
	`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != len(mnemonics) {
		t.Fatalf("assembled %d of %d mnemonics", len(p.Instrs), len(mnemonics))
	}
	// Spot-check operand placement.
	if got := p.Instrs[1]; got != isa.MovI(0, 16) {
		t.Errorf("movi hex: %v", got)
	}
	if got := p.Instrs[16]; got != isa.Create(1, 0, 2) {
		t.Errorf("create: %v", got)
	}
	if got := p.Instrs[21]; got != isa.Call(1, 2) {
		t.Errorf("call: %v", got)
	}
}

func TestDiagnostics(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"frob r1", "unknown mnemonic"},
		{"movi r9, 1", "out of range"},
		{"mova a4, a0", "out of range"},
		{"movi r1", "takes 2 operands"},
		{"movi r1, r2, r3", "takes 2 operands"},
		{"brnz r1, nowhere\nhalt", "undefined label"},
		{"x: halt\nx: halt", "duplicate label"},
		{"1bad: halt", "bad label"},
		{"movi r1, zz!", "bad immediate"},
		{"load r1, bork, 0", "expected a-register"},
		{"", "empty program"},
		{"movi r1, loop\nloop: halt", "not allowed here"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("%q assembled", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q, want substring %q", c.src, err, c.want)
		}
	}
}

func TestEntries(t *testing.T) {
	p, err := Assemble(`
	main:  halt
	aux:   ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	for label, want := range map[string]uint32{"main": 0, "aux": 1} {
		if ip, err := p.Entry(label); err != nil || ip != want {
			t.Fatalf("Entry(%q) = %d, %v", label, ip, err)
		}
	}
	if _, err := p.Entry("missing"); err == nil {
		t.Fatal("missing entry accepted")
	}
}

// TestAssembledProgramExecutes closes the loop: source text through the
// assembler, into an instruction object, executed by the machine.
func TestAssembledProgramExecutes(t *testing.T) {
	sys, err := gdp.New(gdp.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Assemble(`
		; sum 1..10 into the object in a0
		        movi  r1, 10
		        movi  r0, 0
		loop:   add   r0, r0, r1
		        addi  r1, r1, -1
		        brnz  r1, loop
		        store r0, a0, 0
		        halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	code, f := sys.Domains.CreateCode(sys.Heap, p.Instrs)
	if f != nil {
		t.Fatal(f)
	}
	dom, f := sys.Domains.Create(sys.Heap, code, []uint32{0})
	if f != nil {
		t.Fatal(f)
	}
	out, _ := sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	proc, f := sys.Spawn(dom, gdp.SpawnSpec{AArgs: [4]obj.AD{out}})
	if f != nil {
		t.Fatal(f)
	}
	if _, f := sys.Run(0); f != nil {
		t.Fatal(f)
	}
	if st, _ := sys.Procs.StateOf(proc); st != process.StateTerminated {
		t.Fatal("program did not finish")
	}
	if v, _ := sys.Table.ReadDWord(out, 0); v != 55 {
		t.Fatalf("sum = %d", v)
	}
}
