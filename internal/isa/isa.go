// Package isa defines the instruction set of the simulated GDP (general
// data processor). The set is deliberately small — enough to express the
// workloads of the paper's experiments — but its object operations are the
// real 432 repertoire: create-object, send, receive, inter-domain call and
// return are single instructions backed by complex microcode (§2: the 432
// provides "a number of high level implicit operations and instructions").
//
// Instructions are encoded 16 bytes each into the data part of an
// instruction object, so code is stored, typed, collected and filed like
// any other object.
package isa

import (
	"fmt"
	"strings"
)

// Op is an operation code.
type Op uint8

// Register file: each context has 8 data registers (r0..r7, 32-bit) and 4
// access registers (a0..a3) holding capabilities.
const (
	NumDataRegs   = 8
	NumAccessRegs = 4
)

// Operations. Field usage is given as (A, B, C); unused fields are zero.
const (
	// OpNop does nothing.
	OpNop Op = iota
	// OpHalt terminates the process normally.
	OpHalt

	// Data movement and arithmetic on data registers.
	OpMovI // rA ← imm C
	OpMov  // rA ← rB
	OpAdd  // rA ← rB + rC
	OpAddI // rA ← rB + imm C
	OpSub  // rA ← rB - rC
	OpMul  // rA ← rB * rC

	// Control flow. Branch targets are absolute instruction indexes.
	OpBr  // goto C
	OpBrZ // if rA == 0 goto C
	OpBrNZ
	OpBrLT // if rA < rB goto C (unsigned)

	// Memory access through a capability: 32-bit transfers between a
	// data register and the data part of the object in access register
	// aB, at byte displacement imm C.
	OpLoad  // rA ← (aB)[C]
	OpStore // (aB)[C] ← rA

	// Capability movement: between access registers and the access part
	// of an object.
	OpLoadA  // aA ← slot C of (aB)
	OpStoreA // slot C of (aB) ← aA
	OpMovA   // aA ← aB

	// Object operations.
	OpCreate // aA ← create from SRO in aB: data bytes rC, access slots r(C+1)
	OpSend   // send message aA to port aB, key rC; may block
	OpRecv   // aA ← receive from port aB; may block
	OpCSend  // conditional send: rC ← 1 if sent, 0 if it would block
	OpCRecv  // conditional receive: rC ← 1 if received into aA, else 0

	// Inter-domain transfer. OpCall invokes the domain in aB, passing
	// access registers a0..a3 and data registers r0..r3 as arguments;
	// results return in r0/a0. OpCallLocal is the intra-domain
	// procedure activation used as E1's baseline: same transfer of
	// control, no protection switch.
	OpCall      // call domain aB, entry index C
	OpCallLocal // call entry C within the current domain
	OpRet       // return from the current context

	// OpTypeOf loads a small integer tag of aB's hardware type into rA;
	// the runtime type inspection the Intel Ada extensions exposed.
	OpTypeOf
	// OpAmplify raises the rights of the capability in aA for an
	// instance of the TDO in aB, granting the rights in imm C — the
	// type-manager entry operation (§4: only the holder of the TDO's
	// amplify right can open its sealed objects). Faults unless aA is
	// an instance of aB's type and aB carries the amplify right.
	OpAmplify
	// OpIsType sets rA to 1 when aB is an instance of the TDO in aC, else
	// 0: the runtime check of §4's dynamically typed ports.
	OpIsType

	// OpFault deliberately raises fault code C — the fault-injection
	// hook for the damage-confinement experiment (E10).
	OpFault

	numOps
)

// Kind says what an operand is.
type Kind uint8

const (
	DReg   Kind = iota + 1 // data register rN
	AReg                   // access register aN
	Imm                    // immediate
	Target                 // instruction index; the assembler accepts a label
)

// Operand is one operand of an instruction: what it is and which field of
// the Instr ('A', 'B' or 'C') holds it.
type Operand struct {
	Kind  Kind
	Field byte
}

// Spec is one row of the opcode table: the mnemonic and the operands in
// assembler order, destination first. The assembler parses from it,
// Instr.String prints from it, and the processor's predecoder reads the
// operand kinds to validate register numbers.
type Spec struct {
	Name string
	Args []Operand
}

var (
	rA, rB, rC = Operand{DReg, 'A'}, Operand{DReg, 'B'}, Operand{DReg, 'C'}
	aA, aB, aC = Operand{AReg, 'A'}, Operand{AReg, 'B'}, Operand{AReg, 'C'}
	iC, tC     = Operand{Imm, 'C'}, Operand{Target, 'C'}
)

var specs = [numOps]Spec{
	OpNop:       {"nop", nil},
	OpHalt:      {"halt", nil},
	OpMovI:      {"movi", []Operand{rA, iC}},
	OpMov:       {"mov", []Operand{rA, rB}},
	OpAdd:       {"add", []Operand{rA, rB, rC}},
	OpAddI:      {"addi", []Operand{rA, rB, iC}},
	OpSub:       {"sub", []Operand{rA, rB, rC}},
	OpMul:       {"mul", []Operand{rA, rB, rC}},
	OpBr:        {"br", []Operand{tC}},
	OpBrZ:       {"brz", []Operand{rA, tC}},
	OpBrNZ:      {"brnz", []Operand{rA, tC}},
	OpBrLT:      {"brlt", []Operand{rA, rB, tC}},
	OpLoad:      {"load", []Operand{rA, aB, iC}},
	OpStore:     {"store", []Operand{rA, aB, iC}},
	OpLoadA:     {"loada", []Operand{aA, aB, iC}},
	OpStoreA:    {"storea", []Operand{aA, aB, iC}},
	OpMovA:      {"mova", []Operand{aA, aB}},
	OpCreate:    {"create", []Operand{aA, aB, rC}},
	OpSend:      {"send", []Operand{aA, aB, rC}},
	OpRecv:      {"recv", []Operand{aA, aB}},
	OpCSend:     {"csend", []Operand{aA, aB, rC}},
	OpCRecv:     {"crecv", []Operand{aA, aB, rC}},
	OpCall:      {"call", []Operand{aB, iC}},
	OpCallLocal: {"calll", []Operand{iC}},
	OpRet:       {"ret", nil},
	OpTypeOf:    {"typeof", []Operand{rA, aB}},
	OpAmplify:   {"amplify", []Operand{aA, aB, iC}},
	OpIsType:    {"istype", []Operand{rA, aB, aC}},
	OpFault:     {"fault", []Operand{iC}},
}

// Spec reports the opcode's table row, the zero Spec for an undefined one.
func (o Op) Spec() Spec {
	if !o.Valid() {
		return Spec{}
	}
	return specs[o]
}

func (o Op) String() string {
	if o.Valid() {
		return specs[o].Name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o < numOps }

// Instr is one decoded instruction.
type Instr struct {
	Op   Op
	A, B uint8
	C    uint32
}

// Field reads the field an Operand names. Register operands are a byte
// wide wherever they sit: the processor reads a register in C as uint8(C).
func (i Instr) Field(o Operand) uint32 {
	switch {
	case o.Field == 'A':
		return uint32(i.A)
	case o.Field == 'B':
		return uint32(i.B)
	case o.Kind == DReg || o.Kind == AReg:
		return uint32(uint8(i.C))
	}
	return i.C
}

// SetField writes the field an Operand names.
func (i *Instr) SetField(o Operand, v uint32) {
	switch o.Field {
	case 'A':
		i.A = uint8(v)
	case 'B':
		i.B = uint8(v)
	default:
		i.C = v
	}
}

// String prints the instruction in assembler syntax: "load r1, a2, 8".
func (i Instr) String() string { return i.Text(nil) }

// Text is String with branch targets named by label, which returns "" for
// a target it has no name for (nil: none has one).
func (i Instr) Text(label func(target uint32) string) string {
	if !i.Op.Valid() {
		return fmt.Sprintf("; unknown op %d", uint8(i.Op))
	}
	sp := specs[i.Op]
	ops := make([]string, len(sp.Args))
	for n, o := range sp.Args {
		switch v := i.Field(o); {
		case o.Kind == DReg:
			ops[n] = fmt.Sprintf("r%d", v)
		case o.Kind == AReg:
			ops[n] = fmt.Sprintf("a%d", v)
		case o.Kind == Target && label != nil && label(v) != "":
			ops[n] = label(v)
		default:
			ops[n] = fmt.Sprint(v)
		}
	}
	return strings.TrimSpace(i.Op.String() + " " + strings.Join(ops, ", "))
}

// InstrSize is the encoded size of one instruction in an instruction
// object's data part.
const InstrSize = 16

// Encode packs the instruction into 16 little-endian bytes.
func (i Instr) Encode() [InstrSize]byte {
	var b [InstrSize]byte
	b[0] = byte(i.Op)
	b[1] = i.A
	b[2] = i.B
	b[4] = byte(i.C)
	b[5] = byte(i.C >> 8)
	b[6] = byte(i.C >> 16)
	b[7] = byte(i.C >> 24)
	return b
}

// Decode unpacks an instruction encoded by Encode.
func Decode(b []byte) (Instr, error) {
	if len(b) < InstrSize {
		return Instr{}, fmt.Errorf("isa: short instruction (%d bytes)", len(b))
	}
	i := Instr{
		Op: Op(b[0]),
		A:  b[1],
		B:  b[2],
		C:  uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24,
	}
	if !i.Op.Valid() {
		return Instr{}, fmt.Errorf("isa: invalid opcode %d", b[0])
	}
	return i, nil
}

// EncodeProgram packs a program for storage in an instruction object.
func EncodeProgram(prog []Instr) []byte {
	out := make([]byte, 0, len(prog)*InstrSize)
	for _, i := range prog {
		b := i.Encode()
		out = append(out, b[:]...)
	}
	return out
}

// DecodeProgram unpacks a whole code image.
func DecodeProgram(b []byte) ([]Instr, error) {
	if len(b)%InstrSize != 0 {
		return nil, fmt.Errorf("isa: code image length %d not a multiple of %d", len(b), InstrSize)
	}
	prog := make([]Instr, 0, len(b)/InstrSize)
	for off := 0; off < len(b); off += InstrSize {
		in, err := Decode(b[off : off+InstrSize])
		if err != nil {
			return nil, fmt.Errorf("isa: at instruction %d: %w", off/InstrSize, err)
		}
		prog = append(prog, in)
	}
	return prog, nil
}
