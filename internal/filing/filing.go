// Package filing implements a simplified iMAX object filing system (§7.2
// of the paper and its companion reference 16): a storage channel through
// which objects can pass "which might cause them to lose their
// compile-time type identity" in a conventional system, but here "its
// hardware-recognized type identity is guaranteed to be preserved and
// checked, either by the hardware or by object filing."
//
// Encode serialises the object graph reachable from a root —
// hardware types, user-type labels, data parts, and the shape of the
// access parts — into a self-checking image; ActivateImage rebuilds the
// graph from an image as fresh objects. Passivate and Activate do the same
// through a token-addressed volume. User types are recorded by TDO *name* and
// re-bound on activation through a type registry supplied by the
// cooperating type managers, so an activated object is an instance of the
// manager's live TDO, not of a forged copy: the filing system preserves
// identity, it does not mint it.
//
// That promise is enforced against two distinct adversaries:
//
//   - a corrupt image: bytes that rotted on a volume or on the wire (or
//     were truncated) must fail activation with ErrCorrupt — never panic,
//     never leave partially built objects behind;
//   - a hostile image: a well-formed image that claims a privileged
//     hardware type (SRO, TDO, port, process, …) is an attempt to mint
//     authority the hardware would otherwise have to grant; activation
//     refuses it with ErrPrivilegedType. Only plain generic objects can
//     be rebuilt directly; everything type-labelled re-enters through
//     the bound-type registry, which labels instances with the live TDO
//     and never reconstructs the TDO itself.
//
// Activation is transactional: if any step of rebuilding a graph faults
// (storage claim exhausted, corrupt edge, unbound type), every object
// created so far is reclaimed — a failed activation holds no SRO quota.
//
// Only global (level-0) objects may be filed: a reference to a local
// object would dangle the moment its heap unwound, and the level rule
// that prevents that in memory must hold across the store as well.
//
// An image needs no volume to travel: internal/cluster ships Encode's
// bytes between independent kernels, and the receiver runs CheckImage on
// arrival and ActivateImage on the same bytes. No volume holds a graph in
// transit.
package filing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/obj"
	"repro/internal/sro"
)

// Errors reported by the filing system.
var (
	ErrNoSuchFile  = errors.New("filing: no such file")
	ErrCorrupt     = errors.New("filing: stored image fails its checksum")
	ErrUnboundType = errors.New("filing: stored user type has no bound TDO")
	// ErrPrivilegedType rejects an image that would rebuild a privileged
	// hardware type (SRO, TDO, port, process, …) directly: filing
	// preserves identity through the bound-type registry, it never mints
	// hardware authority from stored bytes.
	ErrPrivilegedType = errors.New("filing: image would mint a privileged hardware type")
)

// TypeNamer resolves a TDO capability to the name filed with instances of
// its type. *typedef.Manager implements it; tests substitute hostile
// namers to probe the image encoder's bounds.
type TypeNamer interface {
	Name(tdo obj.AD) (string, *obj.Fault)
}

// Store is one object filing volume.
type Store struct {
	Table *obj.Table
	SROs  *sro.Manager
	TDOs  TypeNamer

	files map[uint64][]byte
	next  uint64
	// types maps user-type names to the live TDOs that activation
	// labels instances with.
	types map[string]obj.AD

	// Scratch that encoding and activation reuse from call to call, so a
	// graph crosses the store without a host allocation once the scratch
	// has grown to its size: Encode's visit order and graph ids, and for
	// each object ActivateImage creates, the image offset of its slot count.
	order []obj.AD
	ids   map[obj.Index]int
	edges []int

	// Stats.
	FiledObjects     uint64
	ActivatedObjects uint64
}

// NewStore returns an empty filing volume over the given managers.
func NewStore(t *obj.Table, s *sro.Manager, td TypeNamer) *Store {
	return &Store{
		Table: t, SROs: s, TDOs: td,
		files: make(map[uint64][]byte),
		next:  1,
		types: make(map[string]obj.AD),
		ids:   make(map[obj.Index]int),
	}
}

// BindType registers a live TDO for activation: stored objects whose
// user-type name matches are labelled as instances of this TDO. Type
// managers call this at configuration time.
func (s *Store) BindType(name string, tdo obj.AD) *obj.Fault {
	if _, f := s.Table.RequireType(tdo, obj.TypeTDO); f != nil {
		return f
	}
	s.types[name] = tdo
	return nil
}

// Serialized image layout (little endian):
//
//	magic  uint32 "iMAX"
//	count  uint32
//	per object:
//	  type      uint8
//	  nameLen   uint16 + bytes (user type name, empty if none)
//	  dataLen   uint32 + bytes
//	  slots     uint32
//	  per slot: uint32 graph index +1, or 0 for nil
//	crc32 of everything above
const fileMagic = 0x58414D69 // "iMAX"

// objMinEncoded is the encoded size of the smallest possible object
// record (empty name, no data, no slots): the fixed fields alone. A
// stored count larger than remaining-bytes/objMinEncoded cannot describe
// a real image and is rejected before any allocation trusts it.
const objMinEncoded = 1 + 2 + 4 + 4

// nameLenMax is the widest user-type name the image format can carry;
// the nameLen field is 16 bits.
const nameLenMax = 0xFFFF

// Passivate files the object graph reachable from root and returns its
// token: Encode, then store the image.
func (s *Store) Passivate(root obj.AD) (uint64, error) {
	img, err := s.Encode(root)
	if err != nil {
		return 0, err
	}
	tok := s.next
	s.next++
	s.files[tok] = img
	return tok, nil
}

// Encode serialises the object graph reachable from root into a
// self-checking image (magic + CRC) without storing it: AppendEncode into
// a fresh slice.
func (s *Store) Encode(root obj.AD) ([]byte, error) {
	return s.AppendEncode(nil, root)
}

// AppendEncode appends the image of the object graph reachable from root to
// dst and returns the extended slice: the wire form the cluster ships, into
// a buffer it recycles. The CRC covers the appended bytes only, so the
// suffix is an image CheckImage accepts. On failure it returns dst as it was
// passed. The root must be a global (level-0) object, and so must the whole
// reachable graph — the level rule guarantees the rest of the graph is if
// the root is.
func (s *Store) AppendEncode(dst []byte, root obj.AD) ([]byte, error) {
	if f := s.enumerate(root); f != nil {
		return dst, f
	}
	// Room for the image but its type names, so a buffer new to the
	// caller's pool is allocated once rather than grown record by record.
	img := binary.LittleEndian.AppendUint32(slices.Grow(dst, s.size()), fileMagic)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(s.order)))
	var v obj.View
	for _, ad := range s.order {
		d := s.Table.DescriptorAt(ad.Index)
		if d == nil {
			return dst, obj.Faultf(obj.FaultOddity, ad, "object vanished during passivation")
		}
		img = append(img, byte(d.Type))
		name, f := s.typeName(ad, d)
		if f != nil {
			return dst, f
		}
		img = binary.LittleEndian.AppendUint16(img, uint16(len(name)))
		img = append(img, name...)
		img = binary.LittleEndian.AppendUint32(img, d.DataLen)
		fullAD, _ := s.Table.SystemAD(ad.Index)
		s.Table.View(fullAD, d.Type, obj.RightRead, &v)
		img = append(img, v.Span(obj.RightRead, 0, d.DataLen)...)
		img = binary.LittleEndian.AppendUint32(img, uint32(d.AccessSlots))
		for slot := uint32(0); slot < uint32(d.AccessSlots); slot++ {
			ref := v.LoadAD(slot)
			var enc uint32
			if ref.Valid() {
				if id, ok := s.ids[ref.Index]; ok {
					enc = uint32(id) + 1
				}
				// Dangling references file as nil: the object
				// they named is already gone.
			}
			img = binary.LittleEndian.AppendUint32(img, enc)
		}
		if f := v.Fault(); f != nil {
			return dst, f
		}
	}
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img[len(dst):]))
	s.FiledObjects += uint64(len(s.order))
	return img, nil
}

// Measure reports what AppendEncode would append for the graph reachable
// from root, its image bytes and its object count, without filing it.
func (s *Store) Measure(root obj.AD) (bytes, objects int, f *obj.Fault) {
	if f := s.enumerate(root); f != nil {
		return 0, 0, f
	}
	bytes = s.size()
	for _, ad := range s.order {
		if d := s.Table.DescriptorAt(ad.Index); d != nil {
			name, f := s.typeName(ad, d)
			if f != nil {
				return 0, 0, f
			}
			bytes += len(name)
		}
	}
	return bytes, len(s.order), nil
}

// Reserve makes room in the scratch for graphs of up to n objects, so that
// encoding or activating one grows nothing.
func (s *Store) Reserve(n int) {
	s.order = slices.Grow(s.order, n)
	s.edges = slices.Grow(s.edges, n)
	s.ids = make(map[obj.Index]int, n)
	s.ids[obj.NilIndex] = 0 // a small map takes its room on its first insert
	clear(s.ids)
}

// enumerate lists the graph reachable from root in s.order, breadth first:
// an object's index in the visit order is its graph id, which s.ids maps
// it to. The root must be a global (level-0) object.
func (s *Store) enumerate(root obj.AD) *obj.Fault {
	d, f := s.Table.Resolve(root)
	if f != nil {
		return f
	}
	if d.Level != obj.LevelGlobal {
		return obj.Faultf(obj.FaultLevel, root, "only global objects may be filed")
	}
	s.order = append(s.order[:0], root)
	clear(s.ids)
	s.ids[root.Index] = 0
	for i := 0; i < len(s.order); i++ {
		f := s.Table.Referents(s.order[i].Index, func(ad obj.AD) {
			if _, seen := s.ids[ad.Index]; !seen {
				s.ids[ad.Index] = len(s.order)
				s.order = append(s.order, ad)
			}
		})
		if f != nil {
			return f
		}
	}
	return nil
}

// size is the image size of the enumerated graph but its type names.
func (s *Store) size() int {
	size := 12 // magic, count, CRC
	for _, ad := range s.order {
		if d := s.Table.DescriptorAt(ad.Index); d != nil {
			size += objMinEncoded + int(d.DataLen) + 4*int(d.AccessSlots)
		}
	}
	return size
}

// typeName is the user-type name filed with the object ad, whose
// descriptor is d: empty for an object of no user type.
func (s *Store) typeName(ad obj.AD, d *obj.Descriptor) (string, *obj.Fault) {
	if d.UserType == obj.NilIndex {
		return "", nil
	}
	tdoAD, ok := s.Table.SystemAD(d.UserType)
	if !ok {
		// The labelling TDO was destroyed while its instance lives on; an
		// image recording the dead type would be unactivatable at best and
		// a forgery vector at worst.
		return "", obj.Faultf(obj.FaultInvalidAD, ad,
			"user-type TDO %d destroyed before passivation", d.UserType)
	}
	name, f := s.TDOs.Name(tdoAD)
	if f != nil {
		return "", f
	}
	if len(name) > nameLenMax {
		// uint16(len(name)) would silently truncate the field and
		// desynchronise every record after it — a corrupt image written
		// by our own hand.
		return "", obj.Faultf(obj.FaultBounds, ad,
			"user-type name of %d bytes exceeds the image's 16-bit field", len(name))
	}
	return name, nil
}

// Activate rebuilds a filed graph as fresh objects allocated from heap
// and returns a capability for the root: a token lookup, then
// ActivateImage.
func (s *Store) Activate(tok uint64, heap obj.AD) (obj.AD, error) {
	img, ok := s.files[tok]
	if !ok {
		return obj.NilAD, ErrNoSuchFile
	}
	root, _, err := s.ActivateImage(img, heap, nil)
	return root, err
}

// CheckImage runs an image's length, checksum and magic tests: the
// damage an image picked up in transit or at rest surfaces here.
func CheckImage(img []byte) error {
	if len(img) < 12 {
		return ErrCorrupt
	}
	body, sum := img[:len(img)-4], binary.LittleEndian.Uint32(img[len(img)-4:])
	if crc32.ChecksumIEEE(body) != sum || binary.LittleEndian.Uint32(img) != fileMagic {
		return ErrCorrupt
	}
	return nil
}

// ActivateImage rebuilds the graph an image encodes as fresh objects
// allocated from heap. It returns a capability for the root and created
// with every object it made appended in image order (the root first):
// callers that later dispose of the whole graph — the cluster transfer
// channel reclaims a shipped copy after forwarding it — need the full
// list, since nothing else records a live graph's membership, and pass a
// list they recycle. Stored user types are re-bound through the type
// registry; an unbound type name is an error — identity cannot be
// conjured. Activation is all-or-nothing: on any failure every object
// already created is reclaimed, so a failed activation never holds storage
// quota, and created comes back as it was passed. The image is checked
// first and only read, never retained.
func (s *Store) ActivateImage(img []byte, heap obj.AD, created []obj.AD) (obj.AD, []obj.AD, error) {
	n0 := len(created)
	if err := CheckImage(img); err != nil {
		return obj.NilAD, created, err
	}
	r := reader{b: img[:len(img)-4], off: 4} // past the checked magic, short of the CRC
	count := int(r.u32())
	if count == 0 {
		return obj.NilAD, created, fmt.Errorf("%w: zero object count", ErrCorrupt)
	}
	// The count field is attacker-controlled 32-bit input; clamp it
	// against what the remaining bytes could possibly encode before any
	// loop trusts it.
	if max := r.remaining() / objMinEncoded; count > max {
		return obj.NilAD, created, fmt.Errorf("%w: count %d exceeds image capacity %d", ErrCorrupt, count, max)
	}

	// unwind reclaims everything created so far, newest first, so a
	// failed activation leaks neither objects nor SRO claim.
	// Reclaim cannot refuse an object this call made and no one else has
	// seen (TestActivateUnwindsOnDanglingEdge reaches the unwind).
	unwind := func(err error) (obj.AD, []obj.AD, error) {
		for i := len(created) - 1; i >= n0; i-- {
			_ = s.SROs.Reclaim(created[i].Index)
		}
		return obj.NilAD, created[:n0], err
	}
	// One latch keeps the first refusal of the writes into the fresh
	// objects, read once after the second pass.
	var l obj.Latch
	s.edges = s.edges[:0]
	for i := 0; i < count; i++ {
		typ := obj.Type(r.u8())
		name := r.bytes(int(r.u16()))
		dataLen := r.u32()
		data := r.bytes(int(dataLen))
		slotsAt := r.off
		slots := r.u32()
		if int64(slots)*4 > int64(r.remaining()) {
			return unwind(fmt.Errorf("%w: object %d claims %d slots beyond the image", ErrCorrupt, i, slots))
		}
		r.take(int(slots) * 4) // read back by the second pass
		if r.err != nil {
			return unwind(fmt.Errorf("%w: %v", ErrCorrupt, r.err))
		}
		if typ != obj.TypeGeneric {
			// Privileged hardware types (SRO, TDO, port, process, …)
			// carry authority the processor grants only through its own
			// create paths; rebuilding one from stored bytes would mint
			// that authority. User-typed objects re-enter through the
			// registry below — as generic instances of the live TDO.
			return unwind(fmt.Errorf("%w: object %d stored as %v", ErrPrivilegedType, i, typ))
		}
		spec := obj.CreateSpec{Type: typ, DataLen: dataLen, AccessSlots: slots}
		if len(name) > 0 {
			tdo, ok := s.types[string(name)]
			if !ok {
				return unwind(fmt.Errorf("%w: %q", ErrUnboundType, name))
			}
			spec.UserType = tdo.Index
		}
		ad, f := s.SROs.Create(heap, spec)
		if f != nil {
			return unwind(f)
		}
		created = append(created, ad)
		s.edges = append(s.edges, slotsAt)
		if dataLen > 0 {
			l.Keep(s.Table.WriteBytes(ad, 0, data))
		}
	}
	// Second pass: rebuild the edges, reading each object's slot count and
	// edge words back from the image.
	objs := created[n0:]
	for i, ad := range objs {
		edges := r.b[s.edges[i]:]
		slots := binary.LittleEndian.Uint32(edges)
		for slot := uint32(0); slot < slots; slot++ {
			enc := binary.LittleEndian.Uint32(edges[4+4*slot:])
			if enc == 0 {
				continue
			}
			if int(enc-1) >= len(objs) {
				return unwind(fmt.Errorf("%w: edge to object %d of %d", ErrCorrupt, enc-1, len(objs)))
			}
			l.Keep(s.Table.StoreAD(ad, slot, objs[enc-1]))
		}
	}
	if f := l.Fault(); f != nil {
		return unwind(f)
	}
	s.ActivatedObjects += uint64(len(objs))
	return objs[0], created, nil
}

// Export returns a copy of the stored image bytes: the wire form of a
// passivated graph, which CheckImage and ActivateImage accept anywhere.
func (s *Store) Export(tok uint64) ([]byte, error) {
	img, ok := s.files[tok]
	if !ok {
		return nil, ErrNoSuchFile
	}
	out := make([]byte, len(img))
	copy(out, img)
	return out, nil
}

// Corrupt flips one byte of a stored image — the fault-injection hook for
// the damage-detection tests.
func (s *Store) Corrupt(tok uint64, at int) error {
	img, ok := s.files[tok]
	if !ok {
		return ErrNoSuchFile
	}
	if at < 0 || at >= len(img) {
		return fmt.Errorf("filing: corrupt offset %d out of range", at)
	}
	img[at] ^= 0xFF
	return nil
}

// reader is a bounds-checked little-endian cursor.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.err = fmt.Errorf("truncated at offset %d", r.off)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *reader) u8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) u16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (r *reader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *reader) bytes(n int) []byte { return r.take(n) }
