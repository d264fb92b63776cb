package asm

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Disassemble renders a program as assembler source that Assemble accepts
// and that round-trips to the same instructions. Branch targets inside the
// program become generated labels (L<index>); everything else prints as
// isa.Instr.String does, from the opcode table the assembler parses.
func Disassemble(prog []isa.Instr) string {
	// First pass: find branch targets that need labels.
	targets := map[uint32]bool{}
	for _, in := range prog {
		for _, o := range in.Op.Spec().Args {
			if o.Kind == isa.Target && in.C < uint32(len(prog)) {
				targets[in.C] = true
			}
		}
	}
	name := func(target uint32) string {
		if targets[target] {
			return fmt.Sprintf("L%d", target)
		}
		return ""
	}
	var b strings.Builder
	for i, in := range prog {
		label := ""
		if targets[uint32(i)] {
			label = name(uint32(i)) + ":"
		}
		fmt.Fprintf(&b, "%-8s%s\n", label, in.Text(name))
	}
	return b.String()
}
