package mm

// The mm witness: testdata/mm_witness.txt pins, per seed, what a seeded
// sequence of memory-manager operations leaves behind in 64 KB of physical
// memory — allocation of mixed sizes (data parts, access parts, both;
// swappable types, hardware anchors, pinned objects) from a global and a
// local heap, destruction of resident and of swapped-out objects,
// EvictVictim, EnsureResident, Compact and DestroyHeap. The scenario
// witnesses reach these paths only through the mempressure preset, whose
// sessions are all one size; this one covers victim order across anchors
// and free slots, compaction of two-part objects into holes of every
// size, and the faults the manager returns when nothing can be evicted.
// The file was generated once, at the parent of the commit that put Compact
// and EvictVictim on a resident set, and is never regenerated by a test: a
// change that moves a line has changed which segment is evicted, where one
// lands, what an operation returns or which events it emits.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/sro"
	"repro/internal/trace"
	"repro/internal/vtime"
)

const (
	mmWitnessPath  = "testdata/mm_witness.txt"
	mmWitnessSeeds = 6
	mmWitnessOps   = 400
	mmWitnessMem   = 64 << 10
)

// Part sizes an allocation draws from: data bytes (all multiples of four)
// and access slots.
var (
	witnessData  = [...]uint32{0, 24, 200, 1000, 2048, 4096, 9000}
	witnessSlots = [...]uint32{0, 0, 3, 16}
)

// swapper is what an op sequence drives: the Allocator specification plus
// the swapping manager's management interface.
type swapper interface {
	Allocator
	EvictVictim() (obj.Index, bool, *obj.Fault)
	EnsureResident(obj.Index) *obj.Fault
	Compact() (int, vtime.Cycles, *obj.Fault)
}

// swapWorld is one table under one swapping manager, with every capability
// the sequence has been handed (live or since destroyed).
type swapWorld struct {
	tab         *obj.Table
	log         *trace.Log
	sros        *sro.Manager
	m           swapper
	root, local obj.AD
	ads         []obj.AD
	n           int // operations stepped
	moves       int
	spent       vtime.Cycles
	settled     int // Compact calls that found memory settled
	walked      int // and those that did not
	// untouched makes allocate write nothing, so that what it creates
	// stays pristine (obj.FlagPristine) until a touch writes it.
	untouched bool
	// held is what descriptors renders for a swapped-out descriptor, whose
	// Place is its token: the data and access extents the descriptor held
	// in the layout the witness was generated with, which kept them when it
	// swapped out (noteExtents) and wrote a failed restore over them
	// (noteFailedRestore).
	held map[obj.Index][2]mem.Extent
}

// newSwapWorld builds a world of mmWitnessMem bytes above below bytes of
// physical memory that raw segments hold for the world's life.
func newSwapWorld(t testing.TB, below uint32, mk func(*obj.Table, *sro.Manager) swapper) *swapWorld {
	t.Helper()
	tab := obj.NewTable(below + mmWitnessMem)
	for held := uint32(0); held < below; {
		e, err := tab.Memory().Alloc(min(mem.MaxSegment, below-held))
		if err != nil {
			t.Fatal(err)
		}
		held += e.Len
	}
	log := trace.New(1 << 16)
	tab.SetTracer(log)
	s := sro.NewManager(tab)
	w := &swapWorld{tab: tab, log: log, sros: s, m: mk(tab, s), held: map[obj.Index][2]mem.Extent{}}
	var f *obj.Fault
	if w.root, f = w.m.NewHeap(0); f != nil {
		t.Fatal(f)
	}
	return w
}

// pick chooses one of the capabilities handed out so far; the operation
// count is mixed in so that sequences longer than 256 allocations still
// reach every one of them.
func (w *swapWorld) pick(arg byte) (obj.AD, bool) {
	if len(w.ads) == 0 {
		return obj.NilAD, false
	}
	ad := w.ads[(int(arg)+31*w.n)%len(w.ads)]
	_, f := w.tab.Resolve(ad)
	return ad, f == nil
}

// step decodes one (kind, arg) pair into an operation, performs it and
// reports what it returned.
func (w *swapWorld) step(kind, arg byte) string {
	w.n++
	switch k := kind % 16; {
	case k < 6:
		return w.allocate(w.root, arg)
	case k < 8:
		if !w.local.Valid() {
			var f *obj.Fault
			if w.local, f = w.m.NewLocalHeap(w.root, 1, 0); f != nil {
				return fmt.Sprintf("local heap: %v", f)
			}
		}
		return w.allocate(w.local, arg)
	case k < 10:
		ad, live := w.pick(arg)
		if !live {
			return "destroy: stale"
		}
		return fmt.Sprintf("destroy %d: %v", ad.Index, w.sros.Reclaim(ad.Index))
	case k < 12 || k == 15 && arg%2 == 1:
		victim, ok, f := w.m.EvictVictim()
		return fmt.Sprintf("evict %d %v: %v", victim, ok, f)
	case k < 14:
		ad, live := w.pick(arg)
		if !live {
			return "touch: stale"
		}
		_, before := w.tab.ReadDWord(ad, 0) // the segment fault, if it is out
		f := w.m.EnsureResident(ad.Index)
		if f != nil {
			w.noteFailedRestore(ad.Index)
		}
		return fmt.Sprintf("touch %d: %v / %v / %v", ad.Index, before, f, w.tab.WriteDWord(ad, 0, uint32(arg)))
	case k == 14:
		if w.tab.Memory().Settled() {
			w.settled++
		} else {
			w.walked++
		}
		moved, spent, f := w.m.Compact()
		w.moves += moved
		w.spent += spent
		return fmt.Sprintf("compact %d %d: %v", moved, spent, f)
	default:
		if !w.local.Valid() {
			return "destroy heap: none"
		}
		n, f := w.m.DestroyHeap(w.local)
		w.local = obj.NilAD
		return fmt.Sprintf("destroy heap %d: %v", n, f)
	}
}

// allocate creates an object whose shape arg selects, tags both ends of
// its data part with its serial number and points its last access slot at
// the previous allocation, so that a part landing on the wrong bytes shows
// in the contents.
func (w *swapWorld) allocate(heap obj.AD, arg byte) string {
	spec := witnessSpec(arg)
	ad, f := w.m.Allocate(heap, spec)
	if f != nil {
		return fmt.Sprintf("allocate: %v", f)
	}
	return w.keep(ad, spec)
}

// witnessSpec is the shape of object arg selects.
func witnessSpec(arg byte) obj.CreateSpec {
	spec := obj.CreateSpec{
		Type:        obj.TypeGeneric,
		DataLen:     witnessData[arg%7],
		AccessSlots: witnessSlots[arg/7%4],
	}
	if spec.DataLen == 0 && spec.AccessSlots == 0 {
		spec.DataLen = 64
	}
	switch {
	case arg >= 240:
		spec.Pinned = true
	case arg >= 208:
		spec.Type = obj.TypePort // a hardware anchor: resident for life, still movable
	case arg%5 == 4:
		spec.Type = obj.TypeInstruction
	}
	return spec
}

// keep hands out the new object ad of shape spec: it is tagged and linked
// as allocate says.
func (w *swapWorld) keep(ad obj.AD, spec obj.CreateSpec) string {
	serial := uint32(len(w.ads))
	w.ads = append(w.ads, ad)
	var tagged, linked *obj.Fault
	if spec.DataLen > 0 && !w.untouched {
		_ = w.tab.WriteDWord(ad, 0, serial)
		tagged = w.tab.WriteDWord(ad, spec.DataLen-4, ^serial)
	}
	if spec.AccessSlots > 0 && serial > 0 && !w.untouched {
		linked = w.tab.StoreAD(ad, spec.AccessSlots-1, w.ads[serial-1])
	}
	return fmt.Sprintf("allocate %v: %v / %v", ad, tagged, linked)
}

// noteExtents records the extents of every resident descriptor.
func (w *swapWorld) noteExtents() {
	for idx := w.tab.NextResident(obj.NilIndex); idx != obj.NilIndex; idx = w.tab.NextResident(idx) {
		d := w.tab.DescriptorAt(idx)
		w.held[idx] = [2]mem.Extent{d.Data(), d.Access()}
	}
}

// noteFailedRestore records what the last allocation attempt of a restore
// that found no room wrote into the witness layout's descriptor: a part it
// could not allocate as no extent, and a data part it allocated before the
// access part failed as the extent first fit gave it.
func (w *swapWorld) noteFailedRestore(idx obj.Index) {
	d := w.tab.DescriptorAt(idx)
	if d == nil || !d.SwappedOut() {
		return
	}
	phys, held := w.tab.Memory(), w.held[idx]
	switch {
	case d.DataLen > 0 && phys.LargestFree() < d.DataLen:
		held[0] = mem.Extent{}
	case d.DataLen > 0:
		// The lowest limit first fit places the part below is one past
		// the base it places it at.
		held[0] = mem.Extent{Base: mem.Addr(sort.Search(int(phys.Size()), func(l int) bool {
			return phys.FitsBelow(d.DataLen, mem.Addr(l))
		}) - 1), Len: d.DataLen}
		held[1] = mem.Extent{}
	default:
		held[1] = mem.Extent{}
	}
	w.held[idx] = held
}

// descriptors renders every table slot's extents and swap state; a
// swapped-out descriptor's are those held records.
func (w *swapWorld) descriptors() []byte {
	var buf bytes.Buffer
	for i := 1; i < w.tab.Len(); i++ {
		d := w.tab.DescriptorAt(obj.Index(i))
		if d == nil {
			fmt.Fprintf(&buf, "%d free\n", i)
			continue
		}
		ext := [2]mem.Extent{d.Data(), d.Access()}
		if d.SwappedOut() {
			ext = w.held[obj.Index(i)]
		}
		fmt.Fprintf(&buf, "%d gen=%d data=%d+%d access=%d+%d swapped=%v token=%d\n", i, d.Gen,
			ext[0].Base, ext[0].Len, ext[1].Base, ext[1].Len, d.SwappedOut(), d.SwapToken())
	}
	return buf.Bytes()
}

// contents renders the bytes readable through every live capability, in
// allocation order. With restore false a swapped-out object reads as its
// fault and nothing changes; with restore true each object is brought back
// first (evicting others as it must), so the rendering covers what the
// backing store held.
func (w *swapWorld) contents(restore bool) []byte {
	var buf bytes.Buffer
	for _, ad := range w.ads {
		d, f := w.tab.Resolve(ad)
		if f != nil {
			continue
		}
		if restore {
			fmt.Fprintf(&buf, "%v ", w.m.EnsureResident(ad.Index))
		}
		data, f := w.tab.ReadBytes(ad, 0, d.DataLen)
		fmt.Fprintf(&buf, "%d data=%x %v access=", ad.Index, data, f)
		for slot := uint32(0); slot < uint32(d.AccessSlots); slot++ {
			held, f := w.tab.LoadAD(ad, slot)
			fmt.Fprintf(&buf, "%v %v,", held, f)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// witnessOps returns the op sequence of a seed: mmWitnessOps (kind, arg)
// pairs.
func witnessOps(seed int64) []byte {
	ops := make([]byte, 2*mmWitnessOps)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// mmWitnessLine drives one seeded run on the real manager and reduces it
// to its witness line. It also reports how many Compact calls found memory
// settled and how many walked.
func mmWitnessLine(t *testing.T, seed int64) (line string, settled, walked int) {
	t.Helper()
	w := newSwapWorld(t, 0, func(tab *obj.Table, s *sro.Manager) swapper { return NewSwapping(tab, s) })
	var results bytes.Buffer
	ops := witnessOps(seed)
	for i := 0; i+1 < len(ops); i += 2 {
		fmt.Fprintf(&results, "%d %s\n", i/2, w.step(ops[i], ops[i+1]))
		w.noteExtents()
	}
	m := w.m.(*Swapping)
	mem := w.tab.Memory()
	line = fmt.Sprintf("desc=%s frag=%d largest=%d used=%d moves=%d compact_cycles=%d swap_cycles=%d evictions=%d",
		sum(w.descriptors()), mem.FragCount(), mem.LargestFree(), mem.Used(), w.moves, m.CompactCycles, m.SwapCycles, m.Evictions)
	if w.spent != m.CompactCycles || uint64(w.moves) != m.CompactMoves {
		t.Errorf("seed %d: Compact returned %d moves and %d cycles in all, the manager counts %d and %d",
			seed, w.moves, w.spent, m.CompactMoves, m.CompactCycles)
	}
	restored := w.contents(true) // the last act: it evicts, and the trace below records that
	if w.log.Seq() > 1<<16 {
		t.Fatalf("seed %d: trace ring wrapped: %d events", seed, w.log.Seq())
	}
	var tr bytes.Buffer
	if err := w.log.Dump(&tr); err != nil {
		t.Fatal(err)
	}
	var victims []string
	for _, e := range w.log.Events() {
		if e.Kind == trace.EvSwapOut {
			victims = append(victims, fmt.Sprint(e.Obj))
		}
	}
	return fmt.Sprintf("%s results=%s trace=%s bytes=%s victims=%s",
		line, sum(results.Bytes()), sum(tr.Bytes()), sum(restored), strings.Join(victims, ",")), w.settled, w.walked
}

// loadPinned reads a pinned `key rest-of-line` file; any defect is a loud
// failure.
func loadPinned(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("pinned file unreadable (it is checked in at internal/mm/%s): %v", path, err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, ok := strings.Cut(line, " ")
		if _, dup := out[key]; !ok || dup {
			t.Fatalf("%s:%d: malformed or duplicate line %q", path, lineNo, line)
		}
		out[key] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: read error: %v", path, err)
	}
	return out
}

func TestMMWitness(t *testing.T) {
	want := loadPinned(t, mmWitnessPath)
	if len(want) != mmWitnessSeeds {
		t.Errorf("%s pins %d lines, want %d", mmWitnessPath, len(want), mmWitnessSeeds)
	}
	var settled, walked int
	for seed := int64(1); seed <= mmWitnessSeeds; seed++ {
		key := fmt.Sprintf("seed-%d", seed)
		got, s, w := mmWitnessLine(t, seed)
		settled += s
		walked += w
		if got != want[key] {
			t.Errorf("%s moved off the mm witness:\n got %s\nwant %s", key, got, want[key])
		}
		// The line must pin what the header says it pins.
		var evictions, moves int
		if _, err := fmt.Sscanf(got[strings.Index(got, "moves="):], "moves=%d", &moves); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscanf(got[strings.Index(got, "evictions="):], "evictions=%d", &evictions); err != nil {
			t.Fatal(err)
		}
		if moves == 0 || evictions == 0 {
			t.Errorf("%s: %d moves and %d evictions: the run does not reach what it claims to pin", key, moves, evictions)
		}
	}
	// Both ways through Compact are pinned, and FuzzSwapCompact runs the
	// same sequences against a reference that always walks.
	if settled == 0 || walked == 0 {
		t.Errorf("%d Compact calls found memory settled and %d walked: the seeds must reach both", settled, walked)
	}
	t.Logf("%d Compact calls found memory settled, %d walked", settled, walked)
}
