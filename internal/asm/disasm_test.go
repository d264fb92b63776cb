package asm

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestDisassembleReadable(t *testing.T) {
	prog := []isa.Instr{
		isa.MovI(4, 3),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 1),
		isa.Halt(),
	}
	out := Disassemble(prog)
	for _, want := range []string{"movi", "addi", "brnz", "halt", "L1:"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

// TestAssembleDisassembleRoundTrip is the central property: for any
// well-formed program, Assemble(Disassemble(p)) reproduces p exactly.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ops := []isa.Op{
		isa.OpNop, isa.OpHalt, isa.OpMovI, isa.OpMov, isa.OpAdd, isa.OpAddI,
		isa.OpSub, isa.OpMul, isa.OpBr, isa.OpBrZ, isa.OpBrNZ, isa.OpBrLT,
		isa.OpLoad, isa.OpStore, isa.OpLoadA, isa.OpStoreA, isa.OpMovA,
		isa.OpCreate, isa.OpSend, isa.OpRecv, isa.OpCSend, isa.OpCRecv,
		isa.OpCall, isa.OpCallLocal, isa.OpRet, isa.OpTypeOf,
		isa.OpAmplify, isa.OpIsType, isa.OpFault,
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(20)
		prog := make([]isa.Instr, n)
		for i := range prog {
			op := ops[rng.Intn(len(ops))]
			in := isa.Instr{Op: op}
			for _, o := range op.Spec().Args {
				var v uint32
				switch o.Kind {
				case isa.DReg:
					v = uint32(rng.Intn(isa.NumDataRegs))
				case isa.AReg:
					v = uint32(rng.Intn(isa.NumAccessRegs))
				case isa.Target:
					v = uint32(rng.Intn(n)) // valid target
				case isa.Imm:
					v = rng.Uint32() % 10_000
				}
				in.SetField(o, v)
			}
			prog[i] = in
		}
		src := Disassemble(prog)
		back, err := Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: reassembly failed: %v\nsource:\n%s", trial, err, src)
		}
		if len(back.Instrs) != len(prog) {
			t.Fatalf("trial %d: %d instrs became %d", trial, len(prog), len(back.Instrs))
		}
		for i := range prog {
			if back.Instrs[i] != prog[i] {
				t.Fatalf("trial %d instr %d: %v became %v\nsource:\n%s",
					trial, i, prog[i], back.Instrs[i], src)
			}
		}
	}
}

func TestDisassembleUnknownOp(t *testing.T) {
	out := Disassemble([]isa.Instr{{Op: isa.Op(200)}})
	if !strings.Contains(out, "unknown") {
		t.Fatalf("unknown op rendered as %q", out)
	}
}
