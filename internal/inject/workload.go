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

	slot := uint32(0)
	publish := func(ad obj.AD) error {
		if f := im.Publish(slot, ad); f != nil {
			return fmt.Errorf("publish slot %d: %v", slot, f)
		}
		slot++
		return nil
	}

	// One shared, deliberately unserviced fault port: faulted workers park
	// there (the §7.3 discipline) and the harness inspects them in place.
	fp, f := im.Ports.Create(im.Heap, chaosFaultPortCap, port.FIFO)
	if f != nil {
		return nil, fmt.Errorf("fault port: %v", f)
	}
	w.FaultPort = fp
	if err := publish(fp); err != nil {
		return nil, err
	}
	floodPorts := []obj.AD{fp}
	var heaps []obj.AD

	// Bystanders: published but never handed to any worker. Their bytes
	// are the cleanest confinement witnesses — no workload path writes
	// them after construction.
	var prev obj.AD
	for i := 0; i < 3; i++ {
		b, f := im.SROs.Create(im.Heap, obj.CreateSpec{
			Type: obj.TypeGeneric, DataLen: 32, AccessSlots: 1,
		})
		if f != nil {
			return nil, fmt.Errorf("bystander %d: %v", i, f)
		}
		for off := uint32(0); off < 32; off += 4 {
			if f := im.Table.WriteDWord(b, off, rng.Uint32()); f != nil {
				return nil, fmt.Errorf("bystander %d fill: %v", i, f)
			}
		}
		if prev.Valid() {
			if f := im.Table.StoreAD(b, 0, prev); f != nil {
				return nil, fmt.Errorf("bystander %d link: %v", i, f)
			}
		}
		prev = b
		w.Bystanders = append(w.Bystanders, b)
		if err := publish(b); err != nil {
			return nil, err
		}
	}

	// spawn starts a worker and returns its group members so far: the
	// process, its domain and its code object.
	spawn := func(prog []isa.Instr, aargs [4]obj.AD) ([]obj.Index, error) {
		code, f := im.Domains.CreateCode(im.Heap, prog)
		if f != nil {
			return nil, fmt.Errorf("code: %v", f)
		}
		dom, f := im.Domains.Create(im.Heap, code, []uint32{0})
		if f != nil {
			return nil, fmt.Errorf("domain: %v", f)
		}
		slices := []uint32{0, 1_500, 4_000}
		p, f := im.Spawn(dom, gdp.SpawnSpec{
			Priority:  uint16(3 + rng.Intn(4)),
			TimeSlice: slices[rng.Intn(len(slices))],
			FaultPort: fp,
			AArgs:     aargs,
		})
		if f != nil {
			return nil, fmt.Errorf("spawn: %v", f)
		}
		w.Workers = append(w.Workers, p)
		return []obj.Index{p.Index, dom.Index, code.Index}, publish(p)
	}

	newResult := func() (obj.AD, error) {
		r, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			return obj.NilAD, fmt.Errorf("result: %v", f)
		}
		return r, publish(r)
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
			result, err := newResult()
			if err != nil {
				return nil, err
			}
			prog := []isa.Instr{
				isa.MovI(1, iters),
				isa.MovI(0, 0),
				isa.Add(0, 0, 1),
				isa.AddI(1, 1, ^uint32(0)),
				isa.BrNZ(1, 2),
				isa.Store(0, 1, 0),
				isa.Halt(),
			}
			g, err := spawn(prog, [4]obj.AD{1: result})
			if err != nil {
				return nil, err
			}
			w.addGroup(append(g, result.Index)...)

		case 1: // ping-pong pair over two capacity-1 ports
			laps := uint32(40 + rng.Intn(60))
			p1, f := im.Ports.Create(im.Heap, 1, port.FIFO)
			if f != nil {
				return nil, fmt.Errorf("ping port: %v", f)
			}
			p2, f := im.Ports.Create(im.Heap, 1, port.FIFO)
			if f != nil {
				return nil, fmt.Errorf("pong port: %v", f)
			}
			ball, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
			if f != nil {
				return nil, fmt.Errorf("ball: %v", f)
			}
			for _, ad := range []obj.AD{p1, p2, ball} {
				if err := publish(ad); err != nil {
					return nil, err
				}
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
			pa, err := spawn(prog, [4]obj.AD{2: p1, 3: p2})
			if err != nil {
				return nil, err
			}
			pb, err := spawn(prog, [4]obj.AD{2: p2, 3: p1})
			if err != nil {
				return nil, err
			}
			if ok, f := im.SendMessage(p1, ball, 0); f != nil || !ok {
				return nil, fmt.Errorf("serve ball: ok=%v %v", ok, f)
			}
			floodPorts = append(floodPorts, p1, p2)
			w.addGroup(append(append(pa, pb...), ball.Index, p1.Index, p2.Index)...)

		case 2: // allocator on a claimed local heap
			n := uint32(32 + rng.Intn(32))
			claim := n*64 + 512
			heap, f := im.MM.NewLocalHeap(im.Heap, 1, claim)
			if f != nil {
				return nil, fmt.Errorf("local heap: %v", f)
			}
			if err := publish(heap); err != nil {
				return nil, err
			}
			result, err := newResult()
			if err != nil {
				return nil, err
			}
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
			g, err := spawn(prog, [4]obj.AD{0: heap, 1: result})
			if err != nil {
				return nil, err
			}
			heaps = append(heaps, heap)
			w.addGroup(append(g, result.Index, heap.Index)...)
		}
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
