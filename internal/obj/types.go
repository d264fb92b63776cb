// Package obj implements the object/capability layer of the simulated 432:
// the global object descriptor table, access descriptors (capabilities) with
// rights, hardware-recognised object types, lifetime level numbers, and the
// checked load/store paths that every higher layer addresses memory through.
//
// This is the microcoded heart of the architecture described in §2 of the
// paper: "Access descriptors or capabilities name entries in a global object
// descriptor table. Each object descriptor ... describes a segment ...
// indicates whether the segment contains data or accesses, indicates what
// type of object it represents, and includes information needed for virtual
// memory management and parallel garbage collection."
package obj

import "fmt"

// Type is a hardware-recognised object type (§2). Objects of these types
// control the processor's implicit operations; Generic objects carry no
// additional hardware semantics. User-defined types layer on top via type
// definition objects (TDOs) without adding Type values.
type Type uint8

// Hardware object types.
const (
	TypeInvalid     Type = iota
	TypeGeneric          // no additional semantics
	TypeProcess          // schedulable activity
	TypeProcessor        // one per physical processor
	TypeSRO              // storage resource object
	TypePort             // interprocess communication port
	TypeDomain           // small protection domain (Ada package)
	TypeContext          // activation record of a domain call
	TypeTDO              // type definition object
	TypeCarrier          // surrogate carrying a blocked process at a port
	TypeInstruction      // code segment of a domain
	numTypes
)

var typeNames = [...]string{
	TypeInvalid:     "invalid",
	TypeGeneric:     "generic",
	TypeProcess:     "process",
	TypeProcessor:   "processor",
	TypeSRO:         "sro",
	TypePort:        "port",
	TypeDomain:      "domain",
	TypeContext:     "context",
	TypeTDO:         "tdo",
	TypeCarrier:     "carrier",
	TypeInstruction: "instruction",
}

// ProcessSlotContext is the access slot of a process object that names its
// current context: the one slot the processor itself follows, so a store
// into it is a context switch to moveAD. internal/process lays out the rest.
const ProcessSlotContext = 0

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// IsValid reports whether t is a defined hardware type (TypeInvalid is
// not; it marks damaged descriptors to the auditor).
func (t Type) IsValid() bool { return t > TypeInvalid && t < numTypes }

// Rights are the per-capability access control flags (§2: "Each access
// descriptor ... contains rights flags that control the access available
// via that access descriptor"). Read/Write/Delete are uniform; the three
// type rights are interpreted by the type's manager (for ports TR1=send and
// TR2=receive; for SROs TR1=allocate; for domains TR1=call; for processes
// TR1=control; for TDOs TR1=create instance, TR2=amplify).
type Rights uint8

const (
	RightRead Rights = 1 << iota
	RightWrite
	RightDelete
	RightT1
	RightT2
	RightT3

	RightsNone Rights = 0
	RightsAll  Rights = RightRead | RightWrite | RightDelete | RightT1 | RightT2 | RightT3
	// RightsData is a plain data capability: read and write, no control.
	RightsData Rights = RightRead | RightWrite
)

// Has reports whether r includes every right in want.
func (r Rights) Has(want Rights) bool { return r&want == want }

// Restrict removes the rights in drop; rights may always be reduced when a
// capability is copied, never increased except by amplification through a
// TDO (internal/typedef).
func (r Rights) Restrict(drop Rights) Rights { return r &^ drop }

func (r Rights) String() string {
	if r == RightsNone {
		return "-"
	}
	flags := []struct {
		bit Rights
		c   byte
	}{
		{RightRead, 'r'}, {RightWrite, 'w'}, {RightDelete, 'd'},
		{RightT1, '1'}, {RightT2, '2'}, {RightT3, '3'},
	}
	out := make([]byte, 0, 6)
	for _, f := range flags {
		if r&f.bit != 0 {
			out = append(out, f.c)
		}
	}
	return string(out)
}

// Index names an entry in the global object descriptor table.
type Index uint32

// NilIndex is the reserved null entry; an AD with this index is invalid.
const NilIndex Index = 0

// Level is an object lifetime level number (§5). Level 0 objects are
// global and exist forever; higher levels correspond to deeper dynamic
// nesting and progressively shorter lifetimes. The hardware enforces that
// an access for an object may never be stored into an object with a lower
// (more global) level number.
type Level uint16

// LevelGlobal is the level of objects allocated from a global heap.
const LevelGlobal Level = 0

// AD is an access descriptor: the 432's capability. It is a value —
// copying an AD copies the capability — and all authority flows through
// it. The generation field makes reuse of table slots safe: an AD held
// across the destruction of its object becomes detectably dangling rather
// than aliasing a new object (the 432 achieved the same with non-reuse and
// the collector; we make it explicit and testable).
type AD struct {
	Index  Index
	Gen    uint32
	Rights Rights
}

// NilAD is the null capability.
var NilAD = AD{}

// Valid reports whether the AD names a table entry at all (not whether
// that entry is still alive — see Table.Resolve).
func (a AD) Valid() bool { return a.Index != NilIndex }

// Restrict returns a copy of the capability with the given rights removed.
func (a AD) Restrict(drop Rights) AD {
	a.Rights = a.Rights.Restrict(drop)
	return a
}

// WithRights returns a copy of the capability holding exactly the given
// rights; used only by the amplification path in internal/typedef.
func (a AD) WithRights(r Rights) AD {
	a.Rights = r
	return a
}

func (a AD) String() string {
	if !a.Valid() {
		return "AD<nil>"
	}
	return fmt.Sprintf("AD<%d#%d %s>", a.Index, a.Gen, a.Rights)
}

// Encoded AD layout in an access segment slot (8 bytes per slot; the real
// machine used 4 — our wider index and generation fields need the space).
//
//	bits  0..31  index
//	bits 32..55  generation (low 24 bits)
//	bits 56..62  rights
//	bit  63      valid
const (
	adGenShift    = 32
	adGenMask     = 0xFFFFFF
	adRightsShift = 56
	adRightsMask  = 0x3F
	adValidBit    = uint64(1) << 63

	// ADSlotSize is the size in bytes of one access-segment slot.
	ADSlotSize = 8
)

// Encode packs an AD for storage in an access segment.
func (a AD) Encode() uint64 {
	if !a.Valid() {
		return 0
	}
	return adValidBit |
		uint64(a.Index) |
		(uint64(a.Gen)&adGenMask)<<adGenShift |
		(uint64(a.Rights)&adRightsMask)<<adRightsShift
}

// DecodeAD unpacks an access-segment slot.
func DecodeAD(v uint64) AD {
	if v&adValidBit == 0 {
		return NilAD
	}
	return AD{
		Index:  Index(v & 0xFFFFFFFF),
		Gen:    uint32(v >> adGenShift & adGenMask),
		Rights: Rights(v >> adRightsShift & adRightsMask),
	}
}
