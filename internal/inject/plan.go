// Package inject is the deterministic fault-injection layer: it turns the
// paper's damage-confinement claims (§7.1, §7.3 — faults are delivered to
// fault ports and serviced without corrupting unrelated objects) into an
// adversarial, replayable test instrument.
//
// An injection plan is a pure function of a seed: a strictly increasing
// sequence of (instruction instant, kind, selector) events. The driver
// (internal/gdp) consults the injector before every instruction, so an
// injected run is as deterministic as an uninjected one — the same seed
// replays the same faults at the same virtual instants in every
// {nocache, cache} corner, byte for byte.
package inject

import (
	"fmt"
	"math/rand"
	"sort"
)

// Kind enumerates the injection-point taxonomy (see DESIGN.md): each kind
// perturbs a different subsystem through its public interface, never by
// reaching into private state, so an injection is always a state the
// machine could in principle have reached on its own.
type Kind uint8

const (
	// KindMemFault raises a memory access (bounds) fault on the process
	// bound to the firing processor.
	KindMemFault Kind = iota
	// KindRightsFault raises an AD rights-violation fault on the bound
	// process.
	KindRightsFault
	// KindPortFlood fills a victim port to capacity with filler messages,
	// so subsequent sends — including fault deliveries — find it full.
	KindPortFlood
	// KindDestroyMidMark runs the collector up to its mark phase and there
	// destroys a victim object (preferring a terminated process).
	KindDestroyMidMark
	// KindSROExhaust allocates away the remaining claim of a victim SRO,
	// so the next allocation from it raises a storage-claim fault.
	KindSROExhaust
	// KindSwapOut evicts the next clock-sweep victim object between two
	// instructions; a later touch raises a segment fault.
	KindSwapOut
	// KindCPUOffline takes a processor out of service mid-run, requeueing
	// its bound process. Every offline event carries a paired
	// KindCPUOnline later in the plan.
	KindCPUOffline
	// KindCPUOnline returns the paired processor to service.
	KindCPUOnline

	numKinds
)

var kindNames = [...]string{
	KindMemFault:       "mem-fault",
	KindRightsFault:    "rights-fault",
	KindPortFlood:      "port-flood",
	KindDestroyMidMark: "destroy-mid-mark",
	KindSROExhaust:     "sro-exhaust",
	KindSwapOut:        "swap-out",
	KindCPUOffline:     "cpu-offline",
	KindCPUOnline:      "cpu-online",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one planned injection: fire when the system-wide executed
// instruction count reaches At. Arg is a raw selector, interpreted at fire
// time modulo the relevant population (processors, flood ports, heaps), so
// a plan stays valid across workloads of any size.
type Event struct {
	At   uint64
	Kind Kind
	Arg  uint64
}

func (e Event) String() string {
	return fmt.Sprintf("@%-8d %-16s arg=%#x", e.At, e.Kind, e.Arg)
}

// Plan is a complete injection schedule. Events are strictly increasing in
// At, so at most one event is due per instruction boundary and firing
// order is total.
type Plan struct {
	Seed    int64
	Horizon uint64
	Events  []Event
}

// DefaultHorizon is the instruction window plans are drawn over when the
// caller passes zero: wide enough that the E3/E12-style chaos workloads
// are mid-flight for every instant.
const DefaultHorizon = 120_000

// NewPlan derives an injection plan from the seed alone: n base events
// drawn uniformly over (0, horizon], plus a paired online event after
// every offline event. Identical arguments produce identical plans — the
// replayability contract the chaos harness and the -inject flag rely on.
func NewPlan(seed int64, horizon uint64, n int) Plan {
	if horizon == 0 {
		horizon = DefaultHorizon
	}
	if n < 0 {
		n = 0
	}
	rng := rand.New(rand.NewSource(seed))
	evs := make([]Event, 0, n*2)
	for i := 0; i < n; i++ {
		at := 1 + uint64(rng.Int63n(int64(horizon)))
		k := Kind(rng.Intn(int(numKinds)))
		if k == KindCPUOnline {
			// Online events exist only as pairs; an unpaired draw becomes
			// an offline (which then pairs itself below).
			k = KindCPUOffline
		}
		arg := rng.Uint64()
		evs = append(evs, Event{At: at, Kind: k, Arg: arg})
		if k == KindCPUOffline {
			back := at + 1 + uint64(rng.Int63n(int64(horizon/4+1)))
			evs = append(evs, Event{At: back, Kind: KindCPUOnline, Arg: arg})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Arg < b.Arg
	})
	// Strictly increasing instants: collisions shift later, preserving
	// order (an offline always keeps its instant below its paired online).
	for i := 1; i < len(evs); i++ {
		if evs[i].At <= evs[i-1].At {
			evs[i].At = evs[i-1].At + 1
		}
	}
	return Plan{Seed: seed, Horizon: horizon, Events: evs}
}

// String renders the plan one event per line, for reports and replay logs.
func (p Plan) String() string {
	s := fmt.Sprintf("plan seed=%d horizon=%d events=%d\n", p.Seed, p.Horizon, len(p.Events))
	for _, e := range p.Events {
		s += "  " + e.String() + "\n"
	}
	return s
}
