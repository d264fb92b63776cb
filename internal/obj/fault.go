package obj

import (
	"fmt"

	"repro/internal/mem"
)

// FaultCode classifies a protection or addressing fault raised by the
// object layer. Faults propagate as errors through the microcode paths;
// the processor (internal/gdp) turns an unhandled fault into delivery of
// the faulting process to its fault port, and the level discipline of §7.3
// decides which system processes are permitted to fault at all.
type FaultCode uint8

const (
	FaultNone FaultCode = iota
	// FaultInvalidAD: the AD is null, names a destroyed object, or its
	// generation does not match (dangling capability).
	FaultInvalidAD
	// FaultRights: the AD lacks a right required by the operation.
	FaultRights
	// FaultLevel: an AD for a short-lived object was stored into a
	// longer-lived object (§5 lifetime rule).
	FaultLevel
	// FaultType: the object's hardware or user type does not match the
	// operation's requirement.
	FaultType
	// FaultBounds: displacement outside the object's data or access part.
	FaultBounds
	// FaultNoMemory: an allocation could not be satisfied.
	FaultNoMemory
	// FaultSegmentMoved: the segment is swapped out or being moved; the
	// swapping memory manager services this fault (§6.2, §7.3).
	FaultSegmentMoved
	// FaultOddity: internal inconsistency — damage detected inside an
	// object (used by the E10 damage-confinement experiment).
	FaultOddity
	// FaultTimeout: a timed operation expired; the only fault permitted
	// to level-2 system processes (§7.3).
	FaultTimeout
	// FaultStorageClaim: SRO storage claim exhausted (distinct from
	// physical exhaustion).
	FaultStorageClaim
)

var faultNames = map[FaultCode]string{
	FaultNone:         "none",
	FaultInvalidAD:    "invalid access descriptor",
	FaultRights:       "insufficient rights",
	FaultLevel:        "level (lifetime) violation",
	FaultType:         "type mismatch",
	FaultBounds:       "displacement out of bounds",
	FaultNoMemory:     "insufficient storage",
	FaultSegmentMoved: "segment moved or swapped out",
	FaultOddity:       "object damaged",
	FaultTimeout:      "timeout",
	FaultStorageClaim: "storage claim exhausted",
}

func (c FaultCode) String() string {
	if s, ok := faultNames[c]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", uint8(c))
}

// Fault is the error type raised by all object-layer checks.
type Fault struct {
	Code   FaultCode
	AD     AD     // the capability involved, if any
	Detail string // human-readable specifics
	// Token is the backing token a segment fault names. A swapping system
	// raises these as routine events (§7.3), thousands a run, so the token
	// is carried as it is and only Error renders it, for an empty Detail.
	Token uint64
}

func (f *Fault) Error() string {
	detail := f.Detail
	if detail == "" && f.Code == FaultSegmentMoved {
		detail = fmt.Sprintf("swapped out (token %d)", f.Token)
	}
	if detail == "" {
		return fmt.Sprintf("fault: %s on %s", f.Code, f.AD)
	}
	return fmt.Sprintf("fault: %s on %s: %s", f.Code, f.AD, detail)
}

// Latch keeps the first fault of a run of creates, the way a View keeps the
// first refusal of an operation's accesses: a constructor runs its steps
// straight through and checks Fault once at the end. A step that is handed
// a refused create's NilAD refuses in turn, typed.
type Latch struct{ f *Fault }

// Keep makes f the latch's fault if it has none yet.
func (l *Latch) Keep(f *Fault) {
	if l.f == nil {
		l.f = f
	}
}

// AD keeps f and returns a, so a create's two results pass through whole:
// a := l.AD(mgr.Create(...)).
func (l *Latch) AD(a AD, f *Fault) AD {
	l.Keep(f)
	return a
}

// Fault returns the first fault kept, or nil.
func (l *Latch) Fault() *Fault { return l.f }

// The details of the other routine fault, no memory for a part, rendered
// once: mem.Alloc refuses a part no larger than mem.MaxPart for one reason.
var (
	noMemory          = mem.ErrNoMemory.Error()
	noMemoryForData   = "data part: " + noMemory
	noMemoryForAccess = "access part: " + noMemory
)

// Faultf constructs a Fault.
func Faultf(code FaultCode, ad AD, format string, args ...any) *Fault {
	return &Fault{Code: code, AD: ad, Detail: fmt.Sprintf(format, args...)}
}

// IsFault reports whether err is a Fault with the given code. A nil
// *Fault (in either typed or untyped form) matches nothing.
func IsFault(err error, code FaultCode) bool {
	f, ok := err.(*Fault)
	return ok && f != nil && f.Code == code
}

// AsFault extracts the Fault from err, or nil.
func AsFault(err error) *Fault {
	f, _ := err.(*Fault)
	return f
}
