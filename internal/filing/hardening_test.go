package filing

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/obj"
	"repro/internal/sro"
	"repro/internal/typedef"
)

// imgBuilder hand-crafts wire images so tests can speak for a corrupt
// volume or a hostile peer without going through Passivate.
type imgBuilder struct{ b []byte }

func newImg(count uint32) *imgBuilder {
	w := &imgBuilder{}
	w.b = binary.LittleEndian.AppendUint32(w.b, fileMagic)
	w.b = binary.LittleEndian.AppendUint32(w.b, count)
	return w
}

func (w *imgBuilder) object(typ obj.Type, name string, data []byte, refs []uint32) *imgBuilder {
	w.b = append(w.b, byte(typ))
	w.b = binary.LittleEndian.AppendUint16(w.b, uint16(len(name)))
	w.b = append(w.b, name...)
	w.b = binary.LittleEndian.AppendUint32(w.b, uint32(len(data)))
	w.b = append(w.b, data...)
	w.b = binary.LittleEndian.AppendUint32(w.b, uint32(len(refs)))
	for _, r := range refs {
		w.b = binary.LittleEndian.AppendUint32(w.b, r)
	}
	return w
}

// raw appends arbitrary bytes — for images that lie about their own
// structure (counts larger than the payload, truncated records).
func (w *imgBuilder) raw(p []byte) *imgBuilder {
	w.b = append(w.b, p...)
	return w
}

func (w *imgBuilder) seal() []byte {
	return binary.LittleEndian.AppendUint32(w.b, crc32.ChecksumIEEE(w.b))
}

// install checksums the image and places it directly in the store,
// bypassing Import's own validation, exactly as a rotted volume would.
func (w *imgBuilder) install(s *Store) uint64 {
	tok := s.next
	s.next++
	s.files[tok] = w.seal()
	return tok
}

func (fx *fixture) leakCheck(t *testing.T) func() {
	t.Helper()
	live := fx.tab.Live()
	_, used, _, f := fx.sros.Usage(fx.heap)
	if f != nil {
		t.Fatal(f)
	}
	return func() {
		t.Helper()
		if got := fx.tab.Live(); got != live {
			t.Fatalf("live objects %d, want %d: failed activation leaked", got, live)
		}
		// Usage's alloc count is cumulative by design; the held-quota
		// invariant is the used-bytes figure.
		_, u, _, f := fx.sros.Usage(fx.heap)
		if f != nil {
			t.Fatal(f)
		}
		if u != used {
			t.Fatalf("SRO usage %d bytes, want %d: failed activation holds quota", u, used)
		}
		if vs := (&audit.Auditor{Table: fx.tab, SROs: fx.sros}).CheckSROs(); len(vs) > 0 {
			t.Fatalf("SRO accounting violated: %v", vs)
		}
	}
}

func TestActivateZeroCountImage(t *testing.T) {
	fx := setup(t)
	check := fx.leakCheck(t)
	tok := newImg(0).install(fx.store)
	_, err := fx.store.Activate(tok, fx.heap)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	check()
}

func TestActivateHugeCountClamped(t *testing.T) {
	fx := setup(t)
	check := fx.leakCheck(t)
	// Image claims 2^32-1 objects but carries a single empty record; the
	// count clamp must reject it before the pre-allocation trusts it.
	tok := newImg(0xFFFFFFFF).object(obj.TypeGeneric, "", nil, nil).install(fx.store)
	_, err := fx.store.Activate(tok, fx.heap)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	check()
}

func TestActivateHugeSlotCountClamped(t *testing.T) {
	fx := setup(t)
	check := fx.leakCheck(t)
	w := newImg(1)
	w.b = append(w.b, byte(obj.TypeGeneric))
	w.b = binary.LittleEndian.AppendUint16(w.b, 0) // no name
	w.b = binary.LittleEndian.AppendUint32(w.b, 0) // no data
	w.b = binary.LittleEndian.AppendUint32(w.b, 0x3FFFFFFF)
	tok := w.install(fx.store)
	_, err := fx.store.Activate(tok, fx.heap)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	check()
}

func TestActivateRejectsPrivilegedTypes(t *testing.T) {
	fx := setup(t)
	for _, typ := range []obj.Type{
		obj.TypeSRO, obj.TypeTDO, obj.TypePort, obj.TypeProcess,
		obj.TypeProcessor, obj.TypeDomain, obj.TypeContext,
		obj.TypeCarrier, obj.TypeInstruction,
	} {
		check := fx.leakCheck(t)
		tok := newImg(1).object(typ, "", nil, nil).install(fx.store)
		_, err := fx.store.Activate(tok, fx.heap)
		if !errors.Is(err, ErrPrivilegedType) {
			t.Fatalf("type %v: err = %v, want ErrPrivilegedType", typ, err)
		}
		check()
	}
}

func TestActivateRejectsPrivilegedTypeAfterCreates(t *testing.T) {
	fx := setup(t)
	check := fx.leakCheck(t)
	// A generic object activates first, then the SRO record is hit: the
	// already-created generic must be reclaimed.
	tok := newImg(2).
		object(obj.TypeGeneric, "", []byte("decoy"), nil).
		object(obj.TypeSRO, "", nil, nil).
		install(fx.store)
	_, err := fx.store.Activate(tok, fx.heap)
	if !errors.Is(err, ErrPrivilegedType) {
		t.Fatalf("err = %v, want ErrPrivilegedType", err)
	}
	check()
}

func TestActivateUnwindsOnUnboundType(t *testing.T) {
	fx := setup(t)
	// Generic root referencing a typed child whose name is unbound:
	// the root is created before the child's record fails.
	tok := newImg(2).
		object(obj.TypeGeneric, "", []byte{1, 2, 3, 4}, []uint32{2}).
		object(obj.TypeGeneric, "no_such_type", nil, nil).
		install(fx.store)
	check := fx.leakCheck(t)
	_, err := fx.store.Activate(tok, fx.heap)
	if !errors.Is(err, ErrUnboundType) {
		t.Fatalf("err = %v, want ErrUnboundType", err)
	}
	check()
}

func TestActivateUnwindsOnClaimExhaustion(t *testing.T) {
	fx := setup(t)
	// A heap whose claim fits the first object but not the second.
	tight, f := fx.sros.NewGlobalHeap(48)
	if f != nil {
		t.Fatal(f)
	}
	tok := newImg(2).
		object(obj.TypeGeneric, "", make([]byte, 32), []uint32{2}).
		object(obj.TypeGeneric, "", make([]byte, 32), nil).
		install(fx.store)
	live := fx.tab.Live()
	_, err := fx.store.Activate(tok, tight)
	if err == nil {
		t.Fatal("activation succeeded past the storage claim")
	}
	if got := fx.tab.Live(); got != live {
		t.Fatalf("live objects %d, want %d after failed activation", got, live)
	}
	_, used, _, f := fx.sros.Usage(tight)
	if f != nil {
		t.Fatal(f)
	}
	if used != 0 {
		t.Fatalf("tight heap holds %d bytes after failed activation", used)
	}
	if vs := (&audit.Auditor{Table: fx.tab, SROs: fx.sros}).CheckSROs(); len(vs) > 0 {
		t.Fatalf("SRO accounting violated: %v", vs)
	}
}

func TestActivateUnwindsOnDanglingEdge(t *testing.T) {
	fx := setup(t)
	check := fx.leakCheck(t)
	// Both objects activate, then the edge pass hits a reference to a
	// graph index beyond the image.
	tok := newImg(2).
		object(obj.TypeGeneric, "", nil, []uint32{9}).
		object(obj.TypeGeneric, "", nil, nil).
		install(fx.store)
	_, err := fx.store.Activate(tok, fx.heap)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	check()
}

func TestPassivateDestroyedUserTypeTDO(t *testing.T) {
	fx := setup(t)
	tdo, f := fx.tdos.Define("ghost_type", obj.LevelGlobal, obj.NilIndex)
	if f != nil {
		t.Fatal(f)
	}
	inst, f := fx.tdos.CreateInstance(tdo, obj.CreateSpec{DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	if f := fx.tab.DestroyIndex(tdo.Index); f != nil {
		t.Fatal(f)
	}
	_, err := fx.store.Passivate(inst)
	if err == nil {
		t.Fatal("passivation of an instance of a destroyed TDO succeeded")
	}
	if !strings.Contains(err.Error(), "destroyed") {
		t.Fatalf("err = %v, want a destroyed-TDO fault", err)
	}
}

// hostileNamer labels every typed object with a name wider than the
// image format's 16-bit length field.
type hostileNamer struct{ name string }

func (h hostileNamer) Name(obj.AD) (string, *obj.Fault) { return h.name, nil }

func TestPassivateOverlongTypeName(t *testing.T) {
	tab := obj.NewTable(1 << 20)
	sros := sro.NewManager(tab)
	tdos := typedef.NewManager(tab)
	heap, f := sros.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	store := NewStore(tab, sros, hostileNamer{name: strings.Repeat("x", nameLenMax+1)})
	tdo, f := tdos.Define("real_name", obj.LevelGlobal, obj.NilIndex)
	if f != nil {
		t.Fatal(f)
	}
	inst, f := tdos.CreateInstance(tdo, obj.CreateSpec{DataLen: 4})
	if f != nil {
		t.Fatal(f)
	}
	_, err := store.Passivate(inst)
	if err == nil {
		t.Fatal("passivation silently truncated a 65536-byte type name")
	}
	if !strings.Contains(err.Error(), "16-bit") {
		t.Fatalf("err = %v, want the name-width fault", err)
	}
	// The widest representable name must still file.
	store2 := NewStore(tab, sros, hostileNamer{name: strings.Repeat("y", nameLenMax)})
	if f := store2.BindType(strings.Repeat("y", nameLenMax), tdo); f != nil {
		t.Fatal(f)
	}
	tok, err := store2.Passivate(inst)
	if err != nil {
		t.Fatalf("max-width name refused: %v", err)
	}
	if _, err := store2.Activate(tok, heap); err != nil {
		t.Fatalf("max-width name failed to activate: %v", err)
	}
}

func TestCheckImageRejectsDamage(t *testing.T) {
	fx := setup(t)
	img, err := fx.store.Encode(fx.obj(t, 16, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckImage(img); err != nil {
		t.Fatalf("clean image refused: %v", err)
	}
	flip := append([]byte{}, img...)
	flip[6] ^= 0x40
	for _, bad := range [][]byte{
		nil,
		img[:4],
		img[:len(img)-1],
		append(append([]byte{}, img...), 0),
		flip,
	} {
		if err := CheckImage(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("damaged image (len %d): err = %v, want ErrCorrupt", len(bad), err)
		}
	}
}

func TestActivateImageIsolation(t *testing.T) {
	fx := setup(t)
	orig := fx.obj(t, 8, 0)
	fx.tab.WriteDWord(orig, 0, 0xBEEF)
	img, err := fx.store.Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := fx.store.ActivateImage(img, fx.heap, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the image after activation must not reach the objects.
	clear(img)
	if v, _ := fx.tab.ReadDWord(back, 0); v != 0xBEEF {
		t.Fatalf("activated graph aliased the image: data = %#x", v)
	}
}

// node is a complete single-kernel fixture for cross-volume tests.
type node struct {
	tab   *obj.Table
	sros  *sro.Manager
	tdos  *typedef.Manager
	store *Store
	heap  obj.AD
}

func newNode(t *testing.T) *node {
	t.Helper()
	tab := obj.NewTable(1 << 20)
	s := sro.NewManager(tab)
	td := typedef.NewManager(tab)
	heap, f := s.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	return &node{tab: tab, sros: s, tdos: td, store: NewStore(tab, s, td), heap: heap}
}

// shape walks a graph breadth-first and renders it as a comparable
// string: per object, user-type name, data bytes, and edge targets as
// visit-order ids.
func (n *node) shape(t *testing.T, root obj.AD) string {
	t.Helper()
	order := []obj.AD{root}
	ids := map[obj.Index]int{root.Index: 0}
	var sb strings.Builder
	for i := 0; i < len(order); i++ {
		ad := order[i]
		d := n.tab.DescriptorAt(ad.Index)
		if d == nil {
			t.Fatalf("object %d vanished", ad.Index)
		}
		name := ""
		if d.UserType != obj.NilIndex {
			td := n.tab.DescriptorAt(d.UserType)
			if td == nil {
				t.Fatalf("object %d has a dead user type", ad.Index)
			}
			nm, f := n.tdos.Name(obj.AD{Index: d.UserType, Gen: td.Gen, Rights: obj.RightsAll})
			if f != nil {
				t.Fatal(f)
			}
			name = nm
		}
		full := obj.AD{Index: ad.Index, Gen: d.Gen, Rights: obj.RightsAll}
		data, f := n.tab.ReadBytes(full, 0, d.DataLen)
		if f != nil {
			t.Fatal(f)
		}
		sb.WriteString(name)
		sb.WriteByte('|')
		sb.Write(data)
		sb.WriteByte('|')
		for slot := uint32(0); slot < d.AccessSlots; slot++ {
			ref, f := n.tab.LoadAD(full, slot)
			if f != nil {
				t.Fatal(f)
			}
			if !ref.Valid() {
				sb.WriteString("nil,")
				continue
			}
			id, ok := ids[ref.Index]
			if !ok {
				id = len(order)
				ids[ref.Index] = id
				order = append(order, ref)
			}
			sb.WriteString(string(rune('0' + id)))
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCrossNodeRoundTripProperty files structured graphs on one kernel
// and activates the exported image on another that shares only type
// *names* — the bytes the cluster transfer channel carries. Graph shape,
// data bytes, and user-type labels must survive; identity (indices,
// generations) must not.
func TestCrossNodeRoundTripProperty(t *testing.T) {
	// A deterministic family of graphs: sizes, fanouts, cycle and
	// sharing patterns varied by parameter.
	for _, tc := range []struct {
		name    string
		objs    int
		fanout  int
		cycle   bool
		typed   bool
		dataLen uint32
	}{
		{"chain", 5, 1, false, false, 16},
		{"tree", 7, 2, false, true, 8},
		{"cycle", 4, 1, true, true, 4},
		{"diamond-share", 6, 2, true, false, 32},
		{"wide", 9, 4, false, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := newNode(t), newNode(t)
			var tdoA, tdoB obj.AD
			if tc.typed {
				var f *obj.Fault
				if tdoA, f = a.tdos.Define("session_rec", obj.LevelGlobal, obj.NilIndex); f != nil {
					t.Fatal(f)
				}
				if tdoB, f = b.tdos.Define("session_rec", obj.LevelGlobal, obj.NilIndex); f != nil {
					t.Fatal(f)
				}
				if f := b.store.BindType("session_rec", tdoB); f != nil {
					t.Fatal(f)
				}
			}
			// Build the graph on node a.
			ads := make([]obj.AD, tc.objs)
			for i := range ads {
				spec := obj.CreateSpec{Type: obj.TypeGeneric, DataLen: tc.dataLen, AccessSlots: uint32(tc.fanout)}
				var f *obj.Fault
				if tc.typed && i%2 == 1 {
					ads[i], f = a.tdos.CreateInstance(tdoA, spec)
				} else {
					ads[i], f = a.sros.Create(a.heap, spec)
				}
				if f != nil {
					t.Fatal(f)
				}
				for w := uint32(0); w*4+4 <= tc.dataLen; w++ {
					a.tab.WriteDWord(ads[i], w, uint32(i)*1000+w)
				}
			}
			for i := range ads {
				for s := 0; s < tc.fanout; s++ {
					target := i*tc.fanout + s + 1
					if target < tc.objs {
						if f := a.tab.StoreAD(ads[i], uint32(s), ads[target]); f != nil {
							t.Fatal(f)
						}
					}
				}
			}
			if tc.cycle {
				if f := a.tab.StoreAD(ads[tc.objs-1], 0, ads[0]); f != nil {
					t.Fatal(f)
				}
			}

			tok, err := a.store.Passivate(ads[0])
			if err != nil {
				t.Fatal(err)
			}
			img, err := a.store.Export(tok)
			if err != nil {
				t.Fatal(err)
			}
			rootB, created, err := b.store.ActivateImage(img, b.heap, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(created) != tc.objs || created[0] != rootB {
				t.Fatalf("ActivateImage bookkeeping wrong: %d created, root %v vs %v",
					len(created), created[0], rootB)
			}

			sa, sb := a.shape(t, ads[0]), b.shape(t, rootB)
			if sa != sb {
				t.Fatalf("graph changed crossing nodes:\nA:\n%s\nB:\n%s", sa, sb)
			}
			// Typed objects on b must be instances of b's live TDO, not a
			// reconstruction of a's.
			if tc.typed {
				found := false
				for _, ad := range created {
					d := b.tab.DescriptorAt(ad.Index)
					if d.UserType != obj.NilIndex {
						if d.UserType != tdoB.Index {
							t.Fatalf("activated instance labelled by TDO %d, want node b's %d", d.UserType, tdoB.Index)
						}
						found = true
					}
				}
				if !found {
					t.Fatal("no typed object survived the crossing")
				}
			}
		})
	}
}
