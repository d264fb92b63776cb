package inject

// workload.go builds the seed-deterministic chaos workload the harness
// (chaos.go) runs in every cache corner: an E3-style compute fleet that
// writes results into witness objects, E12-style capacity-1 ping-pong pairs,
// allocator workers drawing on claimed local heaps (SRO-exhaust victims),
// and untouched bystander objects whose bytes prove damage confinement.
// Construction draws only from a seed-derived generator, never from the
// injection plan, so a reference run and an injected run of the same seed
// build byte-identical worlds.

import (
	"fmt"
	"math/rand"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
)

// Corner selects one of the two interpreter configurations the chaos
// harness must prove byte-identical.
type Corner struct {
	NoExecCache bool
}

func (c Corner) String() string {
	if c.NoExecCache {
		return "nocache"
	}
	return "cache"
}

// Corners is the matrix: the uncached reference interpreter first, then
// the fast path that is checked against it.
var Corners = [2]Corner{{NoExecCache: true}, {}}

const (
	// chaosHorizon is the instruction window injection plans are drawn
	// over: short enough that the workload is still mid-flight (workers
	// retire a few tens of thousands of instructions), long enough to
	// straddle GC cycles and preemptions.
	chaosHorizon = 8_000
	// chaosEvents is the number of base events per plan.
	chaosEvents = 12
	// chaosFaultPortCap keeps the shared fault port small enough that a
	// port-flood event can fill it, exercising the full-fault-port
	// (terminate) arm of fault delivery.
	chaosFaultPortCap = 8
	// chaosTraceCap must hold every event of a run so corner fingerprints
	// compare complete streams, not ring tails.
	chaosTraceCap = 1 << 17
)

// World is one booted chaos workload plus the bookkeeping the harness
// needs to judge it: which processes exist, which objects belong to which
// worker (the permitted blast radius of a fault hitting it), and the
// injector when the run is an injected one.
type World struct {
	IM  *core.IMAX
	Inj *Injector // nil in a reference run

	FaultPort  obj.AD
	Workers    []obj.AD
	Bystanders []obj.AD

	// groups maps every member index of a workgroup to the group's full
	// member list: its processes with their domains and code objects, and
	// the objects they were handed. A fault that lands on any member may
	// corrupt exactly the group (a ping-pong peer legitimately stops
	// mid-rally when its partner faults); everything outside is
	// confinement-protected.
	groups map[obj.Index][]obj.Index

	// built is every object of a type confinement compares that the world
	// held when construction finished, with its generation: the
	// candidates chaos.go draws confinement witnesses from.
	built []obj.AD
}

// Group returns the blast-radius group containing idx, or nil.
func (w *World) Group(idx obj.Index) []obj.Index { return w.groups[idx] }

func (w *World) addGroup(members ...obj.Index) {
	for _, m := range members {
		w.groups[m] = members
	}
}

// BuildWorld boots a system in the given corner and constructs the chaos
// workload for the seed. When injected is true the seed's injection plan
// is installed; the workload itself is identical either way.
func BuildWorld(seed int64, corner Corner, injected bool) (*World, error) {
	// A distinct stream from the plan's: construction must not shift when
	// the plan generator changes, and vice versa.
	rng := rand.New(rand.NewSource(seed ^ 0x1d872b41))

	im, err := core.Boot(core.Config{
		Processors:    2 + rng.Intn(3),
		MemoryBytes:   8 << 20,
		Swapping:      true,
		GC:            true,
		GCWork:        8, // small work quanta stretch the mark phase
		GCInterval:    20_000,
		Trace:         true,
		TraceCapacity: chaosTraceCap,
		// The audit ledger rides every chaos run: its root lands in the
		// corner fingerprint (one more determinism witness) and the
		// re-verification tests re-derive the confinement verdict from
		// the sealed bytes alone.
		Ledger:      true,
		NoExecCache: corner.NoExecCache,
	})
	if err != nil {
		return nil, err
	}
	w := &World{IM: im, groups: make(map[obj.Index][]obj.Index)}

	// The world is created straight through: the latch keeps the first
	// refusal, and a step handed a refused create's NilAD refuses in turn.
	var l obj.Latch
	slot := uint32(0)
	publish := func(ad obj.AD) {
		l.Keep(im.Publish(slot, ad))
		slot++
	}

	// One shared, deliberately unserviced fault port: faulted workers park
	// there (the §7.3 discipline) and the harness inspects them in place.
	fp := l.AD(im.Ports.Create(im.Heap, chaosFaultPortCap, port.FIFO))
	w.FaultPort = fp
	publish(fp)
	floodPorts := []obj.AD{fp}
	var heaps []obj.AD

	// Bystanders: published but never handed to any worker. Their bytes
	// are the cleanest confinement witnesses — no workload path writes
	// them after construction.
	var prev obj.AD
	for i := 0; i < 3; i++ {
		b := l.AD(im.SROs.Create(im.Heap, obj.CreateSpec{
			Type: obj.TypeGeneric, DataLen: 32, AccessSlots: 1,
		}))
		for off := uint32(0); off < 32; off += 4 {
			l.Keep(im.Table.WriteDWord(b, off, rng.Uint32()))
		}
		if prev.Valid() {
			l.Keep(im.Table.StoreAD(b, 0, prev))
		}
		prev = b
		w.Bystanders = append(w.Bystanders, b)
		publish(b)
	}

	// spawn starts a worker and returns its group members so far: the
	// process, its domain and its code object.
	spawn := func(prog []isa.Instr, aargs [4]obj.AD) []obj.Index {
		code := l.AD(im.Domains.CreateCode(im.Heap, prog))
		dom := l.AD(im.Domains.Create(im.Heap, code, []uint32{0}))
		slices := []uint32{0, 1_500, 4_000}
		p := l.AD(im.Spawn(dom, gdp.SpawnSpec{
			Priority:  uint16(3 + rng.Intn(4)),
			TimeSlice: slices[rng.Intn(len(slices))],
			FaultPort: fp,
			AArgs:     aargs,
		}))
		w.Workers = append(w.Workers, p)
		publish(p)
		return []obj.Index{p.Index, dom.Index, code.Index}
	}

	newResult := func() obj.AD {
		r := l.AD(im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}))
		publish(r)
		return r
	}

	nWorkers := 6 + rng.Intn(5)
	for kindPick := 0; len(w.Workers) < nWorkers; kindPick++ {
		// Force one of each shape before drawing freely, so every seed
		// exercises every injection surface.
		kind := kindPick
		if kind > 2 {
			kind = rng.Intn(3)
		}
		switch kind {
		case 0: // compute: sum a countdown into the result object
			iters := uint32(1200 + rng.Intn(3000))
			result := newResult()
			prog := []isa.Instr{
				isa.MovI(1, iters),
				isa.MovI(0, 0),
				isa.Add(0, 0, 1),
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 2),
				isa.Store(0, 1, 0),
				isa.Halt(),
			}
			g := spawn(prog, [4]obj.AD{1: result})
			w.addGroup(append(g, result.Index)...)

		case 1: // ping-pong pair over two capacity-1 ports
			laps := uint32(40 + rng.Intn(60))
			p1 := l.AD(im.Ports.Create(im.Heap, 1, port.FIFO))
			p2 := l.AD(im.Ports.Create(im.Heap, 1, port.FIFO))
			ball := l.AD(im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}))
			for _, ad := range []obj.AD{p1, p2, ball} {
				publish(ad)
			}
			prog := []isa.Instr{
				isa.MovI(4, laps),
				isa.MovI(5, 0),
				isa.Recv(1, 2),    // a1 ← ball from a2
				isa.Load(0, 1, 0), // increment the rally count
				isa.AddI(0, 0, 1),
				isa.Store(0, 1, 0),
				isa.Send(1, 3, 5), // volley to a3
				isa.AddI(4, 4, ^uint32(0)),
				isa.BrNZ(4, 2),
				isa.Halt(),
			}
			pa := spawn(prog, [4]obj.AD{2: p1, 3: p2})
			pb := spawn(prog, [4]obj.AD{2: p2, 3: p1})
			// p1 is empty and holds one message: only a fault refuses
			// the serve.
			_, f := im.SendMessage(p1, ball, 0)
			l.Keep(f)
			floodPorts = append(floodPorts, p1, p2)
			w.addGroup(append(append(pa, pb...), ball.Index, p1.Index, p2.Index)...)

		case 2: // allocator on a claimed local heap
			n := uint32(32 + rng.Intn(32))
			claim := n*64 + 512
			heap := l.AD(im.MM.NewLocalHeap(im.Heap, 1, claim))
			publish(heap)
			result := newResult()
			prog := []isa.Instr{
				isa.MovI(4, n),
				isa.MovI(2, 64),
				isa.MovI(3, 0),
				isa.Create(2, 0, 2), // a2 ← new object from heap (a0)
				isa.AddI(4, 4, ^uint32(0)),
				isa.BrNZ(4, 3),
				isa.MovI(0, 0xA110C),
				isa.Store(0, 1, 0),
				isa.Halt(),
			}
			g := spawn(prog, [4]obj.AD{0: heap, 1: result})
			heaps = append(heaps, heap)
			w.addGroup(append(g, result.Index, heap.Index)...)
		}
	}
	if f := l.Fault(); f != nil {
		return nil, fmt.Errorf("inject: world of seed %d: %w", seed, f)
	}

	for _, idx := range audit.ComparableObjects(im.Table) {
		w.built = append(w.built, obj.AD{Index: idx, Gen: im.Table.DescriptorAt(idx).Gen})
	}
	if injected {
		plan := NewPlan(seed, chaosHorizon, chaosEvents)
		w.Inj = New(plan, Env{
			Swapper:    im.Swapper,
			Collector:  im.Collector,
			FloodPorts: floodPorts,
			Heaps:      heaps,
			FillerHeap: im.Heap,
		})
		im.SetInjector(w.Inj)
	}
	return w, nil
}
