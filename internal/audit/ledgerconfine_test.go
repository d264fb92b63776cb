package audit

// Unit tests for the ledger-replay confinement checker over synthetic
// event streams: each violation class fires on exactly the stream shape
// that should trigger it, and only the listed witnesses are judged.

import (
	"strings"
	"testing"

	"repro/internal/obj"
	"repro/internal/trace"
)

// stream builds events with dense sequence numbers.
type stream struct {
	events []trace.Event
	seq    uint64
}

func (s *stream) add(k trace.Kind, o, a uint32, aux uint64) {
	s.seq++
	s.events = append(s.events, trace.Event{Seq: s.seq, Kind: k, Obj: o, Arg: a, Aux: aux})
}

func (s *stream) create(idx uint32, t obj.Type, level uint64) {
	s.add(trace.EvObjCreate, idx, uint32(t), level)
}

func (s *stream) store(dst, src uint32, slot uint64) {
	s.add(trace.EvADStore, dst, src, slot)
}

func baseStream() *stream {
	s := &stream{}
	s.create(10, obj.TypeGeneric, 0) // the innocent witness
	s.create(11, obj.TypeGeneric, 0)
	s.create(20, obj.TypeProcess, 0) // the faulting party (no witness)
	s.create(21, obj.TypeGeneric, 0) // in the faulting party's group
	s.store(20, 21, 0)
	s.store(10, 11, 3)
	return s
}

// witnesses is the declared scope of the synthetic runs: the two objects
// outside the faulting party's group.
var witnesses = []obj.Index{10, 11}

func check(ref, inj *stream) []Violation {
	return CheckConfinementFromLedger(ref.events, inj.events, witnesses)
}

func TestLedgerConfineClean(t *testing.T) {
	if vs := check(baseStream(), baseStream()); len(vs) != 0 {
		t.Fatalf("identical streams reported violations: %v", vs)
	}
}

func TestLedgerConfineViolationClasses(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(inj *stream)
		want   string
	}{
		{"extra store", func(s *stream) { s.store(10, 11, 5) }, "access history length"},
		{"diverging store", func(s *stream) {
			s.events[len(s.events)-1].Aux = 7 // slot 3 → 7 on object 10
		}, "diverges at store"},
		{"destroyed", func(s *stream) { s.add(trace.EvObjDestroy, 10, uint32(obj.TypeGeneric), 0) }, "destroyed"},
		{"identity changed", func(s *stream) {
			s.events[0].Arg = uint32(obj.TypeDomain) // recreate 10 as a domain
		}, "creation identity changed"},
		{"recreated", func(s *stream) {
			s.add(trace.EvObjDestroy, 10, uint32(obj.TypeGeneric), 0)
			s.create(10, obj.TypeGeneric, 0)
			s.store(10, 11, 3)
		}, "incarnation 2 injected"},
	}
	for _, tc := range cases {
		inj := baseStream()
		tc.mutate(inj)
		vs := check(baseStream(), inj)
		if len(vs) == 0 {
			t.Fatalf("%s: no violation", tc.name)
		}
		if vs[0].Obj != 10 || !strings.Contains(vs[0].Msg, tc.want) {
			t.Fatalf("%s: got %v, want obj 10 matching %q", tc.name, vs[0], tc.want)
		}
	}
}

func TestLedgerConfineNeverCreated(t *testing.T) {
	inj := baseStream()
	inj.events = inj.events[1:] // drop 10's creation
	vs := check(baseStream(), inj)
	if len(vs) == 0 || !strings.Contains(vs[0].Msg, "never created") {
		t.Fatalf("missing creation not reported: %v", vs)
	}
}

// TestLedgerConfineInjectionDestroyed: an object an injection destroyed is
// not a witness (inject drops every victim's group from the list), so its
// destruction and whatever the injected run then does on its index are not
// judged; the same destruction of a listed witness is damage. Nothing
// outside the list is judged, however far it diverges.
func TestLedgerConfineInjectionDestroyed(t *testing.T) {
	inj := baseStream()
	inj.add(trace.EvObjDestroy, 10, uint32(obj.TypeGeneric), 0)
	inj.store(10, 11, 2) // post-destruction noise on a dead index
	inj.store(21, 11, 1) // divergence inside the faulting party's group
	if vs := CheckConfinementFromLedger(baseStream().events, inj.events, []obj.Index{11}); len(vs) != 0 {
		t.Fatalf("unlisted objects judged: %v", vs)
	}
	if vs := check(baseStream(), inj); len(vs) != 1 || vs[0].Obj != 10 {
		t.Fatalf("destroyed witness: got %v, want one violation on object 10", vs)
	}
}
