package obj

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

func faultCode(f *Fault) FaultCode {
	if f == nil {
		return FaultNone
	}
	return f.Code
}

// viewOp is one access of the eleven an operation can make, in both forms:
// through a View (which latches) and through the table's single-shot
// accessor (which returns its fault). Each returns the value read, if any.
type viewOp struct {
	name  string
	view  func(v *View, off, slot, x uint32, src AD) uint64
	table func(t *Table, a AD, off, slot, x uint32, src AD) (uint64, *Fault)
}

var viewOps = []viewOp{
	{"Word",
		func(v *View, off, _, _ uint32, _ AD) uint64 { return uint64(v.Word(off)) },
		func(t *Table, a AD, off, _, _ uint32, _ AD) (uint64, *Fault) {
			w, f := t.ReadBytes(a, off, 2) // little-endian, like every ordinal
			if f != nil {
				return 0, f
			}
			return uint64(w[0]) | uint64(w[1])<<8, nil
		}},
	{"SetWord",
		func(v *View, off, _, x uint32, _ AD) uint64 { v.SetWord(off, uint16(x)); return 0 },
		func(t *Table, a AD, off, _, x uint32, _ AD) (uint64, *Fault) {
			return 0, t.WriteBytes(a, off, []byte{byte(x), byte(x >> 8)})
		}},
	{"DWord",
		func(v *View, off, _, _ uint32, _ AD) uint64 { return uint64(v.DWord(off)) },
		func(t *Table, a AD, off, _, _ uint32, _ AD) (uint64, *Fault) {
			w, f := t.ReadDWord(a, off)
			return uint64(w), f
		}},
	{"SetDWord",
		func(v *View, off, _, x uint32, _ AD) uint64 { v.SetDWord(off, x); return 0 },
		func(t *Table, a AD, off, _, x uint32, _ AD) (uint64, *Fault) { return 0, t.WriteDWord(a, off, x) }},
	{"Bytes",
		func(v *View, off, _, x uint32, _ AD) uint64 { return sum64(v.Bytes(off, x%8)) },
		func(t *Table, a AD, off, _, x uint32, _ AD) (uint64, *Fault) {
			w, f := t.ReadBytes(a, off, x%8)
			return sum64(w), f
		}},
	{"SetBytes",
		func(v *View, off, _, x uint32, _ AD) uint64 { v.SetBytes(off, pattern(x)); return 0 },
		func(t *Table, a AD, off, _, x uint32, _ AD) (uint64, *Fault) {
			return 0, t.WriteBytes(a, off, pattern(x))
		}},
	{"Span read",
		func(v *View, off, _, x uint32, _ AD) uint64 { return sum64(v.Span(RightRead, off, x%8)) },
		func(t *Table, a AD, off, _, x uint32, _ AD) (uint64, *Fault) {
			w, f := t.ReadBytes(a, off, x%8)
			return sum64(w), f
		}},
	{"Span write",
		func(v *View, off, _, x uint32, _ AD) uint64 { copy(v.Span(RightWrite, off, x%8), pattern(x)); return 0 },
		func(t *Table, a AD, off, _, x uint32, _ AD) (uint64, *Fault) {
			return 0, t.WriteBytes(a, off, pattern(x))
		}},
	{"LoadAD",
		func(v *View, _, slot, _ uint32, _ AD) uint64 { return v.LoadAD(slot).Encode() },
		func(t *Table, a AD, _, slot, _ uint32, _ AD) (uint64, *Fault) {
			w, f := t.LoadAD(a, slot)
			return w.Encode(), f
		}},
	{"StoreAD",
		func(v *View, _, slot, _ uint32, src AD) uint64 { v.StoreAD(slot, src); return 0 },
		func(t *Table, a AD, _, slot, _ uint32, src AD) (uint64, *Fault) { return 0, t.StoreAD(a, slot, src) }},
	{"StoreADSystem",
		func(v *View, _, slot, _ uint32, src AD) uint64 { v.StoreADSystem(slot, src); return 0 },
		func(t *Table, a AD, _, slot, _ uint32, src AD) (uint64, *Fault) {
			return 0, t.StoreADSystem(a, slot, src)
		}},
}

// pattern is the x%8 bytes a SetBytes of the tables writes, and sum64 folds
// what a Bytes read into the value the tables compare.
func pattern(x uint32) []byte {
	return []byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24), 5, 6, 7}[:x%8]
}

func sum64(p []byte) (s uint64) {
	for _, b := range p {
		s = s<<8 | uint64(b)
	}
	return s
}

// viewTwins builds a table with a logged tracer, twin contexts a and b and
// the sources an AD store is tried with.
func viewTwins(t *testing.T) (tab *Table, a, b AD, srcs []AD) {
	tab = newTestTable(t)
	tab.SetTracer(trace.New(64))
	spec := CreateSpec{Type: TypeContext, Level: 1, DataLen: 24, AccessSlots: 3}
	a, b = mustCreate(t, tab, spec), mustCreate(t, tab, spec)
	srcs = []AD{
		NilAD,
		mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 1, DataLen: 4}),
		mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 2, DataLen: 4}), // too local for StoreAD
		{Index: 999, Gen: 1, Rights: RightsAll},                                 // dangling
	}
	return
}

// contents reads both parts of an object below its capability's rights.
func contents(t *testing.T, tab *Table, ad AD) string {
	t.Helper()
	ad = ad.WithRights(RightsAll)
	data, f := tab.ReadBytes(ad, 0, 24)
	if f != nil {
		t.Fatal(f)
	}
	out := fmt.Sprintf("%x", data)
	for s := uint32(0); s < 3; s++ {
		x, f := tab.LoadAD(ad, s)
		if f != nil {
			t.Fatal(f)
		}
		out += " " + x.String()
	}
	return out
}

// effects is everything an access can move besides the object's bytes.
type effects struct {
	gen, stores, grayings, seq uint64
}

func effectsOf(tab *Table) effects {
	return effects{tab.CacheGen(), tab.adStores, tab.grayings, tab.tr.Seq()}
}

// TestViewAgreesWithTable drives the same random accesses through a View
// and through the single-shot Table accessors, on twin objects, under every
// subset of read/write rights: values, fault codes, bytes left behind,
// counters and trace events must agree, because a view may skip the walk
// from AD to segment but no check. The first table fills a view per access;
// the second runs whole operations — a fill, then accesses until one is
// refused — against the same accesses made one shot at a time and stopped
// at the first fault, which is what a latch is.
func TestViewAgreesWithTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rights := range []Rights{RightsNone, RightRead, RightWrite, RightsData} {
		tab, a, b, srcs := viewTwins(t)
		a, b = a.WithRights(rights), b.WithRights(rights)
		step := func(v *View, i int) (stop bool) {
			off, slot, x := uint32(rng.Intn(28)), uint32(rng.Intn(4)), rng.Uint32()
			src, op := srcs[rng.Intn(len(srcs))], viewOps[rng.Intn(len(viewOps))]
			// The store and its twin run back to back, so both see the
			// same colour on src and move the same counters.
			before := effectsOf(tab)
			got := op.view(v, off, slot, x, src)
			mid := effectsOf(tab)
			want, wf := op.table(tab, b, off, slot, x, src)
			after := effectsOf(tab)
			dv := effects{mid.gen - before.gen, mid.stores - before.stores, mid.grayings - before.grayings, mid.seq - before.seq}
			dt := effects{after.gen - mid.gen, after.stores - mid.stores, after.grayings - mid.grayings, after.seq - mid.seq}
			// Graying is the one effect the twin cannot repeat: the view's
			// store shaded src first.
			dv.grayings, dv.seq = 0, dv.seq-dv.grayings
			if got != want || faultCode(v.Fault()) != faultCode(wf) || dv != dt {
				t.Fatalf("rights %s access %d %s: view %d %v %+v, table %d %v %+v",
					rights, i, op.name, got, v.Fault(), dv, want, wf, dt)
			}
			return wf != nil
		}
		for i := 0; i < 2_000; i++ {
			var v View
			tab.View(a, TypeContext, RightsNone, &v)
			step(&v, i)
		}
		if ca, cb := contents(t, tab, a), contents(t, tab, b); ca != cb {
			t.Fatalf("rights %s: twins diverged one access at a time:\n%s\n%s", rights, ca, cb)
		}
		for i := 0; i < 400; i++ {
			var v View
			tab.View(a, TypeContext, RightsNone, &v)
			for n := 0; n < 12 && !step(&v, i); n++ {
			}
		}
		if ca, cb := contents(t, tab, a), contents(t, tab, b); ca != cb {
			t.Fatalf("rights %s: twins diverged an operation at a time:\n%s\n%s", rights, ca, cb)
		}
	}
}

// TestViewLatch: after the first refused access of each kind — a right the
// capability lacks, a displacement out of bounds, a slot past the access
// part, the level rule — every further accessor is a no-op. The object's
// bytes, the AD-store and graying counters, the cache generation and the
// trace sequence stay where the refusal left them, reads return zero, and
// Fault is still the first fault. A fault latched from outside stops the
// view the same way, and only if it is the first.
func TestViewLatch(t *testing.T) {
	for _, c := range []struct {
		name   string
		rights Rights
		refuse func(v *View, local AD)
		want   FaultCode
	}{
		{"rights", RightRead, func(v *View, _ AD) { v.SetWord(0, 1) }, FaultRights},
		{"bounds", RightsData, func(v *View, _ AD) { v.DWord(22) }, FaultBounds},
		{"slot bound", RightsData, func(v *View, _ AD) { v.LoadAD(3) }, FaultBounds},
		{"level rule", RightsData, func(v *View, local AD) { v.StoreAD(0, local) }, FaultLevel},
		{"latched from outside", RightsData, func(v *View, _ AD) {
			v.Latch(nil)
			v.Latch(Faultf(FaultNoMemory, NilAD, "no carrier"))
			v.Latch(Faultf(FaultOddity, NilAD, "second"))
		}, FaultNoMemory},
	} {
		tab, a, _, srcs := viewTwins(t)
		ok, local := srcs[1], srcs[2]
		var v View
		tab.View(a.WithRights(c.rights), TypeContext, RightRead, &v)
		if c.rights == RightsData {
			v.SetDWord(4, 0xfeedface)
			v.StoreAD(1, ok)
		}
		if v.Fault() != nil {
			t.Fatalf("%s: healthy accesses faulted: %v", c.name, v.Fault())
		}
		c.refuse(&v, local)
		first := v.Fault()
		if faultCode(first) != c.want {
			t.Fatalf("%s: refusal latched %v, want %s", c.name, first, c.want)
		}
		bytes, eff := contents(t, tab, a), effectsOf(tab)
		white := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 1, DataLen: 4})
		tab.SetColor(white.Index, White)
		eff.seq = tab.tr.Seq() // the creation's own event
		for _, op := range viewOps {
			for _, src := range []AD{NilAD, white, local} {
				if got := op.view(&v, 0, 0, 0xffffffff, src); got != 0 {
					t.Errorf("%s: %s read %d through a faulted view", c.name, op.name, got)
				}
				op.view(&v, 400, 9, 1, src) // and a refusal of its own
			}
		}
		v.Emit(trace.EvSend, 1, 2)
		v.Latch(Faultf(FaultOddity, NilAD, "later"))
		if v.Fault() != first {
			t.Errorf("%s: the latch moved from %v to %v", c.name, first, v.Fault())
		}
		if got := contents(t, tab, a); got != bytes {
			t.Errorf("%s: a faulted view wrote:\n%s\n%s", c.name, bytes, got)
		}
		if got := effectsOf(tab); got != eff {
			t.Errorf("%s: a faulted view had effects: %+v, want %+v", c.name, got, eff)
		}
		if col, _ := tab.ColorOf(white.Index); col != White {
			t.Errorf("%s: a faulted view shaded its source %s", c.name, col)
		}
	}
}

// TestViewSpan: over every subset of read/write rights, every displacement
// and every length up to eight bytes of a 24-byte object, a span of either
// right agrees with the per-field accessor of that width — Word and SetWord
// for two bytes, DWord and SetDWord for four, Bytes and SetBytes otherwise:
// the same bytes read or written, or the same fault code, AD and text. A
// span is nil exactly when the view has faulted, and a faulted view spans
// nothing, not even a window it could have spanned before, and keeps its
// first fault.
func TestViewSpan(t *testing.T) {
	tab, a, _, _ := viewTwins(t)
	base := []byte("0123456789abcdefghijklmn")
	le := binary.LittleEndian
	field := func(v *View, write bool, off, n uint32, pat []byte) []byte {
		switch {
		case write && n == 2:
			v.SetWord(off, le.Uint16(pat))
		case write && n == 4:
			v.SetDWord(off, le.Uint32(pat))
		case write:
			v.SetBytes(off, pat)
		case n == 2:
			return le.AppendUint16(nil, v.Word(off))
		case n == 4:
			return le.AppendUint32(nil, v.DWord(off))
		default:
			return v.Bytes(off, n)
		}
		return nil
	}
	// access resets the object, makes one access through a fresh view and
	// returns what it read, its fault and the bytes it left behind.
	access := func(rights Rights, do func(v *View) []byte) ([]byte, *Fault, string) {
		if f := tab.WriteBytes(a.WithRights(RightsAll), 0, base); f != nil {
			t.Fatal(f)
		}
		var v View
		tab.View(a.WithRights(rights), TypeContext, RightsNone, &v)
		got := do(&v)
		return got, v.Fault(), contents(t, tab, a)
	}
	for _, rights := range []Rights{RightsNone, RightRead, RightWrite, RightsData} {
		for off := uint32(0); off <= 26; off++ {
			for n := uint32(0); n <= 8; n++ {
				for _, want := range []Rights{RightRead, RightWrite} {
					name := fmt.Sprintf("%s %s [%d,+%d)", rights, want, off, n)
					write, pat := want == RightWrite, []byte("ZYXWVUTS")[:n]
					sb, sf, sc := access(rights, func(v *View) []byte {
						b := v.Span(want, off, n)
						switch first := v.Fault(); {
						case first == nil && b == nil:
							t.Errorf("%s: a nil span without a fault", name)
						case first != nil && (b != nil || v.Span(RightsNone, 0, 1) != nil ||
							v.Span(want, 400, 2) != nil || v.Fault() != first):
							t.Errorf("%s: a faulted view spanned, or its first fault moved", name)
						}
						if write {
							copy(b, pat)
							return nil
						}
						return append([]byte(nil), b...)
					})
					fb, ff, fc := access(rights, func(v *View) []byte { return field(v, write, off, n, pat) })
					if faultCode(sf) != faultCode(ff) || sf != nil && (sf.AD != ff.AD || sf.Error() != ff.Error()) {
						t.Errorf("%s: span faulted %v, the field accessor %v", name, sf, ff)
					}
					if sf == nil && string(sb) != string(fb) || sc != fc {
						t.Errorf("%s: span read %x and left %s\nthe field accessor read %x and left %s", name, sb, sc, fb, fc)
					}
				}
			}
		}
	}
}

// TestViewResolve: a refused fill latches what RequireType and then the
// first access would raise — invalid, type, the demanded right, presence —
// and a filled view survives table growth; Fill refuses the same ADs
// without building the fault or touching the view, and Current says when a
// held view has stopped being the object.
func TestViewResolve(t *testing.T) {
	tab := newTestTable(t)
	a := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 8, AccessSlots: 1})
	var v, dead View
	refused := func(ad AD, typ Type) *Fault {
		tab.View(ad, typ, RightRead, &dead)
		if dead.AD() != ad || dead.Word(0) != 0 {
			t.Errorf("a refused fill of %v left a usable view", ad)
		}
		return dead.Fault()
	}
	if f := refused(a.WithRights(RightWrite), TypeGeneric); !IsFault(f, FaultRights) {
		t.Errorf("view without the demanded right: %v", f)
	}
	if f := refused(a.WithRights(RightWrite), TypePort); !IsFault(f, FaultType) {
		t.Errorf("type comes before rights: %v", f)
	}
	if tab.View(a, TypeGeneric, RightRead, &v); v.Fault() != nil {
		t.Fatal(v.Fault())
	}
	for i := 0; i < 5_000; i++ { // grow the descriptor table under the view
		mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 1})
	}
	if v.SetDWord(4, 7); v.Fault() != nil {
		t.Fatal(v.Fault())
	}
	if x, f := tab.ReadDWord(a, 4); f != nil || x != 7 {
		t.Fatalf("write through a view across table growth: %d %v", x, f)
	}
	if !tab.Current(&v) {
		t.Error("a view of a resident object is not current")
	}
	if f := tab.SwapOut(a.Index, 3); f != nil {
		t.Fatal(f)
	}
	if tab.Current(&v) {
		t.Error("a view of a swapped-out object is current")
	}
	dead = View{}
	if n := testing.AllocsPerRun(100, func() {
		if tab.Fill(a, RightRead, &dead) || dead.AD().Valid() {
			t.Fatal("Fill accepted a swapped-out object, or wrote the view it refused")
		}
	}); n != 0 {
		t.Errorf("a refused Fill allocates %v times", n)
	}
	if f := refused(a.WithRights(RightWrite), TypeGeneric); !IsFault(f, FaultRights) {
		t.Errorf("rights come before presence: %v", f)
	}
	if f := refused(a, TypeGeneric); !IsFault(f, FaultSegmentMoved) {
		t.Errorf("view of a swapped-out object: %v", f)
	}
	if f := refused(a, TypePort); !IsFault(f, FaultType) {
		t.Errorf("type comes before presence: %v", f)
	}
	if f := tab.DestroyIndex(a.Index); f != nil {
		t.Fatal(f)
	}
	if f := refused(a.WithRights(RightsNone), TypePort); !IsFault(f, FaultInvalidAD) {
		t.Errorf("invalid comes before type and rights: %v", f)
	}
}

// TestADStoreInvalidatesCaches is the table of the one invalidation rule of
// the AD-move microcode: a store bumps the cache generation when it writes
// the context slot of a process (either path: PushContext and PopContext are
// system stores) or the code slot of a domain (either path: a program may
// store into its own domain), or, on the user-reachable path only, any slot
// of a context (a system store into a context is SetAReg, which must not
// thrash the execution cache). Every other slot of a process — ports, tree
// links, the carry slot a wake-up loads — every other slot of a domain and
// every other type bumps on neither path.
func TestADStoreInvalidatesCaches(t *testing.T) {
	tab := newTestTable(t)
	leaf := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 4})
	const slots = 8
	for _, typ := range []Type{TypeProcess, TypeContext, TypeGeneric, TypePort, TypeDomain, TypeProcessor} {
		dst := mustCreate(t, tab, CreateSpec{Type: typ, AccessSlots: slots})
		for slot := uint32(0); slot < slots; slot++ {
			for _, src := range []AD{leaf, NilAD} { // a clear counts as a store
				wantSystem := typ == TypeProcess && slot == ProcessSlotContext || typ == TypeDomain && slot == DomainSlotCode
				wantUser := wantSystem || typ == TypeContext
				gen := tab.CacheGen()
				if f := tab.StoreAD(dst, slot, src); f != nil {
					t.Fatal(f)
				}
				if got := tab.CacheGen() != gen; got != wantUser {
					t.Errorf("StoreAD(%v) into slot %d of a %s: bumped = %v, want %v", src, slot, typ, got, wantUser)
				}
				gen = tab.CacheGen()
				if f := tab.StoreADSystem(dst, slot, src); f != nil {
					t.Fatal(f)
				}
				if got := tab.CacheGen() != gen; got != wantSystem {
					t.Errorf("StoreADSystem(%v) into slot %d of a %s: bumped = %v, want %v", src, slot, typ, got, wantSystem)
				}
			}
		}
	}
	// A refused store moved nothing and bumps nothing.
	proc := mustCreate(t, tab, CreateSpec{Type: TypeProcess, AccessSlots: slots})
	gen := tab.CacheGen()
	if f := tab.StoreADSystem(proc.Restrict(RightWrite), ProcessSlotContext, leaf); !IsFault(f, FaultRights) {
		t.Fatalf("store through a read-only capability: %v", f)
	}
	if f := tab.StoreADSystem(proc, slots, leaf); !IsFault(f, FaultBounds) {
		t.Fatalf("store past the access part: %v", f)
	}
	if tab.CacheGen() != gen {
		t.Error("a refused store bumped the cache generation")
	}
}
