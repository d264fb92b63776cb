package audit

// Damage confinement (§7.1 of the paper): "the use of many small
// protection domains confines the effects of errors". The fault-injection
// harness (internal/inject) turns that claim into a checkable statement by
// comparing an injected run against a fault-free reference run of the same
// seed over one declared list of witnesses: objects both runs built before
// they diverged, outside every faulting party's declared group. Each
// witness must come through the injected run unchanged. This file holds
// the live verdict (final tables); ledgerconfine.go holds the same verdict
// re-derived from two event histories.

import (
	"fmt"

	"repro/internal/obj"
)

// confinementComparable reports whether confinement compares objects of
// this hardware type. Process/context/port/carrier/processor/SRO objects
// hold scheduling and accounting state that diverges benignly once any
// injection has perturbed the interleaving; generic, instruction, domain
// and TDO objects hold only what programs put in them.
func confinementComparable(t obj.Type) bool {
	switch t {
	case obj.TypeGeneric, obj.TypeInstruction, obj.TypeDomain, obj.TypeTDO:
		return true
	}
	return false
}

// ComparableObjects lists, in index order, the live objects of the types
// confinement compares: the candidates a caller draws witnesses from.
func ComparableObjects(t *obj.Table) []obj.Index {
	var out []obj.Index
	for i := 1; i < t.Len(); i++ {
		if d := t.DescriptorAt(obj.Index(i)); d != nil && confinementComparable(d.Type) {
			out = append(out, obj.Index(i))
		}
	}
	return out
}

// CheckConfinement verifies the damage-confinement claim against the final
// table of a fault-free reference run: every witness, which must be live
// in ref, must still exist in the audited table with the same identity
// (generation, type, level) and data and access bytes; no operation
// resizes an object, so the same generation is the same shape. Who is a
// witness is the caller's declaration; nothing here computes a blast
// radius. A witness swapped out in either table is compared by identity
// only: its bytes are the backing store's business.
func (a *Auditor) CheckConfinement(ref *obj.Table, witnesses []obj.Index) []Violation {
	var out []Violation
	bad := func(idx obj.Index, format string, args ...any) {
		out = append(out, Violation{Subsystem: "confine", Obj: idx, Msg: fmt.Sprintf(format, args...)})
	}
	rm, m := ref.Memory(), a.Table.Memory()
	for _, idx := range witnesses {
		r, d := ref.DescriptorAt(idx), a.Table.DescriptorAt(idx)
		switch {
		case d == nil:
			bad(idx, "%s object (gen %d) destroyed", r.Type, r.Gen)
		case d.Gen != r.Gen || d.Type != r.Type || d.Level != r.Level:
			bad(idx, "identity changed: %s gen %d level %d in reference, %s gen %d level %d now",
				r.Type, r.Gen, r.Level, d.Type, d.Gen, d.Level)
		case d.SwappedOut || r.SwappedOut:
			// Identity only.
		default:
			if off := firstDiff(rm.Window(r.Data), m.Window(d.Data)); off >= 0 {
				bad(idx, "data byte %d differs from the reference", off)
			} else if off := firstDiff(rm.Window(r.Access), m.Window(d.Access)); off >= 0 {
				bad(idx, "access slot %d differs from the reference", off/obj.ADSlotSize)
			}
		}
	}
	return out
}

// firstDiff is the offset of the first byte at which a and b differ, or -1
// when they are equal.
func firstDiff(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	if n == len(a) && n == len(b) {
		return -1
	}
	return n
}
