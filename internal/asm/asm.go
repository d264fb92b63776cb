// Package asm is a small two-pass assembler for the simulated GDP's
// instruction set: labels, registers, immediates and comments, producing
// the []isa.Instr that internal/domain stores in instruction objects.
// The examples and tools use it so that workload programs read as
// programs rather than as Go slice literals.
//
// Syntax, one instruction per line:
//
//	; comment, or # comment
//	start:  movi  r4, 10        ; labels end with ':'
//	loop:   addi  r4, r4, -1    ; negative immediates wrap to uint32
//	        brnz  r4, loop      ; branch targets are labels or numbers
//	        send  a1, a2, r5    ; access registers are a0..a3
//	        call  a1, 0         ; domain call, entry index
//	        halt
//
// Mnemonics mirror the constructors in internal/isa; operand order is
// destination first, as in the constructors.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Error is an assembly diagnostic with a line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) *Error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// mnemonics is the opcode table of internal/isa by name: the one statement
// of each instruction's operands, which Disassemble prints from too.
var mnemonics = func() map[string]isa.Op {
	m := map[string]isa.Op{}
	for op := isa.Op(0); op.Valid(); op++ {
		m[op.Spec().Name] = op
	}
	return m
}()

// Program is an assembled program with its symbol table.
type Program struct {
	Instrs []isa.Instr
	Labels map[string]uint32
}

// Entry reports a label's instruction index, for building domain entry
// tables.
func (p *Program) Entry(label string) (uint32, error) {
	ip, ok := p.Labels[label]
	if !ok {
		return 0, fmt.Errorf("asm: no label %q", label)
	}
	return ip, nil
}

type pending struct {
	line  int
	instr int
	label string
}

// Assemble parses and assembles source.
func Assemble(source string) (*Program, error) {
	p := &Program{Labels: make(map[string]uint32)}
	var fixups []pending

	for lineNo, raw := range strings.Split(source, "\n") {
		line := lineNo + 1
		text := raw
		if i := strings.IndexAny(text, ";#"); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		// Labels, possibly several, possibly with an instruction after.
		for {
			i := strings.Index(text, ":")
			if i < 0 {
				break
			}
			label := strings.TrimSpace(text[:i])
			if !validLabel(label) {
				return nil, errf(line, "bad label %q", label)
			}
			if _, dup := p.Labels[label]; dup {
				return nil, errf(line, "duplicate label %q", label)
			}
			p.Labels[label] = uint32(len(p.Instrs))
			text = strings.TrimSpace(text[i+1:])
		}
		if text == "" {
			continue
		}
		in, fix, err := parseInstr(line, text, len(p.Instrs))
		if err != nil {
			return nil, err
		}
		p.Instrs = append(p.Instrs, in)
		if fix != nil {
			fixups = append(fixups, *fix)
		}
	}

	for _, f := range fixups {
		ip, ok := p.Labels[f.label]
		if !ok {
			return nil, errf(f.line, "undefined label %q", f.label)
		}
		p.Instrs[f.instr].C = ip
	}
	if len(p.Instrs) == 0 {
		return nil, errf(0, "empty program")
	}
	return p, nil
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func parseInstr(line int, text string, index int) (isa.Instr, *pending, error) {
	fields := strings.Fields(text)
	mn := strings.ToLower(fields[0])
	op, ok := mnemonics[mn]
	if !ok {
		return isa.Instr{}, nil, errf(line, "unknown mnemonic %q", fields[0])
	}
	sp := op.Spec()
	rest := strings.TrimSpace(text[len(fields[0]):])
	var ops []string
	if rest != "" {
		for _, o := range strings.Split(rest, ",") {
			ops = append(ops, strings.TrimSpace(o))
		}
	}
	if len(ops) != len(sp.Args) {
		return isa.Instr{}, nil, errf(line, "%s takes %d operands, got %d", mn, len(sp.Args), len(ops))
	}
	in := isa.Instr{Op: op}
	var fix *pending
	for i, o := range ops {
		var v uint32
		var err error
		switch kind := sp.Args[i].Kind; kind {
		case isa.DReg:
			v, err = parseReg(o, 'r', isa.NumDataRegs)
		case isa.AReg:
			v, err = parseReg(o, 'a', isa.NumAccessRegs)
		default:
			var isLabel bool
			v, isLabel, err = parseImm(o)
			if isLabel && kind != isa.Target {
				return isa.Instr{}, nil, errf(line, "label %q not allowed here", o)
			}
			if isLabel {
				fix = &pending{line: line, instr: index, label: o}
			}
		}
		if err != nil {
			return isa.Instr{}, nil, errf(line, "%v", err)
		}
		in.SetField(sp.Args[i], v)
	}
	return in, fix, nil
}

func parseReg(s string, prefix byte, limit int) (uint32, error) {
	if len(s) < 2 || (s[0] != prefix && s[0] != prefix-32) {
		return 0, fmt.Errorf("expected %c-register, got %q", prefix, s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= limit {
		return 0, fmt.Errorf("register %q out of range (0..%d)", s, limit-1)
	}
	return uint32(n), nil
}

// parseImm accepts decimal (optionally negative, wrapping to uint32), hex
// (0x...), or a label name.
func parseImm(s string) (uint32, bool, error) {
	if s == "" {
		return 0, false, fmt.Errorf("empty operand")
	}
	if validLabel(s) && !isNumeric(s) {
		return 0, true, nil
	}
	neg := false
	t := s
	if t[0] == '-' {
		neg = true
		t = t[1:]
	}
	v, err := strconv.ParseUint(t, 0, 32)
	if err != nil {
		return 0, false, fmt.Errorf("bad immediate %q", s)
	}
	out := uint32(v)
	if neg {
		out = -out
	}
	return out, false, nil
}

func isNumeric(s string) bool {
	return s[0] >= '0' && s[0] <= '9'
}
