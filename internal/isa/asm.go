package isa

// Assembler convenience constructors. Workload generators and tests build
// programs with these instead of raw struct literals, which keeps operand
// roles readable at the call site.

// Nop does nothing for one instruction slot.
func Nop() Instr { return Instr{Op: OpNop} }

// Halt terminates the process.
func Halt() Instr { return Instr{Op: OpHalt} }

// MovI sets data register r to the immediate v.
func MovI(r uint8, v uint32) Instr { return Instr{Op: OpMovI, A: r, C: v} }

// Mov copies data register b into a.
func Mov(a, b uint8) Instr { return Instr{Op: OpMov, A: a, B: b} }

// Add computes a ← b + c.
func Add(a, b, c uint8) Instr { return Instr{Op: OpAdd, A: a, B: b, C: uint32(c)} }

// AddI computes a ← b + v.
func AddI(a, b uint8, v uint32) Instr { return Instr{Op: OpAddI, A: a, B: b, C: v} }

// Sub computes a ← b - c.
func Sub(a, b, c uint8) Instr { return Instr{Op: OpSub, A: a, B: b, C: uint32(c)} }

// Mul computes a ← b * c.
func Mul(a, b, c uint8) Instr { return Instr{Op: OpMul, A: a, B: b, C: uint32(c)} }

// Br jumps to absolute instruction index target.
func Br(target uint32) Instr { return Instr{Op: OpBr, C: target} }

// BrZ jumps to target when register r is zero.
func BrZ(r uint8, target uint32) Instr { return Instr{Op: OpBrZ, A: r, C: target} }

// BrNZ jumps to target when register r is non-zero.
func BrNZ(r uint8, target uint32) Instr { return Instr{Op: OpBrNZ, A: r, C: target} }

// BrLT jumps to target when ra < rb (unsigned).
func BrLT(ra, rb uint8, target uint32) Instr {
	return Instr{Op: OpBrLT, A: ra, B: rb, C: target}
}

// Load reads the 32-bit word at byte displacement off of the object in
// access register ab into data register r.
func Load(r, ab uint8, off uint32) Instr { return Instr{Op: OpLoad, A: r, B: ab, C: off} }

// Store writes data register r to byte displacement off of the object in
// access register ab.
func Store(r, ab uint8, off uint32) Instr { return Instr{Op: OpStore, A: r, B: ab, C: off} }

// StoreA stores access register aa into access slot n of the object in ab.
func StoreA(aa, ab uint8, n uint32) Instr { return Instr{Op: OpStoreA, A: aa, B: ab, C: n} }

// MovA copies access register ab into aa.
func MovA(aa, ab uint8) Instr { return Instr{Op: OpMovA, A: aa, B: ab} }

// Create allocates an object from the SRO in access register asro with
// rc data bytes and r(c+1) access slots, leaving the capability in aa.
func Create(aa, asro, rc uint8) Instr { return Instr{Op: OpCreate, A: aa, B: asro, C: uint32(rc)} }

// Send sends the message in access register am to the port in ap with the
// key in data register rkey.
func Send(am, ap, rkey uint8) Instr { return Instr{Op: OpSend, A: am, B: ap, C: uint32(rkey)} }

// Recv receives from the port in ap into access register am.
func Recv(am, ap uint8) Instr { return Instr{Op: OpRecv, A: am, B: ap} }

// CSend is the conditional send; data register rok receives 1 on success,
// 0 if the send would block.
func CSend(am, ap, rok uint8) Instr { return Instr{Op: OpCSend, A: am, B: ap, C: uint32(rok)} }

// CRecv is the conditional receive; rok receives 1 when a message arrived
// in am.
func CRecv(am, ap, rok uint8) Instr { return Instr{Op: OpCRecv, A: am, B: ap, C: uint32(rok)} }

// Call invokes entry point entry of the domain in access register ad.
func Call(ad uint8, entry uint32) Instr { return Instr{Op: OpCall, B: ad, C: entry} }

// CallLocal invokes entry point entry of the current domain without a
// protection switch (E1's baseline).
func CallLocal(entry uint32) Instr { return Instr{Op: OpCallLocal, C: entry} }

// Ret returns from the current context.
func Ret() Instr { return Instr{Op: OpRet} }

// TypeOf loads a tag of the hardware type of the object in ab into r.
func TypeOf(r, ab uint8) Instr { return Instr{Op: OpTypeOf, A: r, B: ab} }

// Amplify raises the rights of the instance capability in aa through the
// TDO in ab, granting the rights mask grant.
func Amplify(aa, ab uint8, grant uint32) Instr {
	return Instr{Op: OpAmplify, A: aa, B: ab, C: grant}
}

// IsType sets data register r to 1 when the object in ab is an instance
// of the TDO in access register ac.
func IsType(r, ab, ac uint8) Instr {
	return Instr{Op: OpIsType, A: r, B: ab, C: uint32(ac)}
}

// FaultInject raises fault code c deliberately (experiment E10).
func FaultInject(c uint32) Instr { return Instr{Op: OpFault, C: c} }
