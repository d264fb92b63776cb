package obj

// Side is host state kept beside the table, one entry per object: a slice
// indexed by Index, each entry stored under the generation its descriptor
// had at the time. Get answers only while the slot still holds that object,
// so an entry is never read for whatever is created there next. Indices are
// dense and reused: the slice is as long as the highest index that ever had
// an entry, and nothing is hashed.
type Side[V any] struct {
	t       *Table
	entries []sideEntry[V]
}

// sideEntry's gen is never 0 for a live object: the zero entry matches none.
type sideEntry[V any] struct {
	gen uint32
	v   V
}

// sideBoot is the room a side table is born with: what gets an entry at boot
// (code, domains, daemons) sits at low indices, and its first use grows none.
const sideBoot = 64

// NewSide returns an empty side table over t.
func NewSide[V any](t *Table) Side[V] {
	return Side[V]{t: t, entries: make([]sideEntry[V], sideBoot)}
}

// Put records v for the live object at idx, and nothing for an empty slot.
func (s *Side[V]) Put(idx Index, v V) {
	d := s.t.DescriptorAt(idx)
	if d == nil {
		return
	}
	if n := int(idx) + 1 - len(s.entries); n > 0 {
		s.entries = append(s.entries, make([]sideEntry[V], n)...)
	}
	s.entries[idx] = sideEntry[V]{d.Gen, v}
}

// Get returns what Put recorded for the object at idx, if that object is
// still the one there.
func (s *Side[V]) Get(idx Index) (v V, ok bool) {
	if int(idx) >= len(s.entries) || int(idx) >= len(s.t.descs) {
		return v, false
	}
	if e, d := &s.entries[idx], &s.t.descs[idx]; d.Valid && e.gen == d.Gen {
		return e.v, true
	}
	return v, false
}
