// Package scenario is the open-loop workload engine: it drives 10³–10⁶
// simulated user sessions against a configured iMAX system — one machine
// (Engine) or a lockstep cluster of them (ShardEngine, N of the same node)
// — and measures per-request latency in virtual time with SLO-grade
// percentiles.
//
// Every experiment in internal/experiments is closed-loop: a fixed
// population of processes runs to completion and throughput is reported.
// The paper's pitch — a multiprocessor OS whose pluggable process
// management serves many concurrent users (§6.1) — is an open-loop claim:
// work arrives on its own schedule whether or not the system keeps up,
// and what matters is the latency distribution under that arrival
// pressure. The engine therefore separates the arrival process from the
// service capacity:
//
//   - Sessions arrive by a seeded arrival process (Poisson or bursty
//     trains, arrival.go) that does not know or care how busy the system
//     is. Each session issues a configurable number of requests.
//   - Requests are session objects sent to a per-class request port and
//     served by a fixed pool of resident server processes
//     (workload.ServerSpec programs) spawned through the pm layer under
//     a selected scheduling policy (pm.Select).
//   - Request latency is scheduled-arrival to observed-completion in
//     virtual cycles, recorded in a deterministic fixed-bucket histogram
//     (vtime.Hist). A request that finds its port full queues in the
//     engine and its wait counts: open-loop latency includes queueing.
//
// The engine is itself a discrete-event simulation layered over the
// cycle-accurate driver: between Step quanta it injects due arrivals and
// drains completions, and when the machine goes idle it advances virtual
// time to the next arrival the way gdp.Run advances to the next timer.
// Completions are observed at Step boundaries, so individual latencies
// carry a bounded measurement granularity of one step quantum; the
// quantum is a constant of the package and part of the determinism
// contract.
//
// Determinism is a hard property, not an aspiration: a scenario's Result
// — every percentile, every counter — is a pure function of (Config,
// seed). All samplers are integer-only (no float anywhere in the engine),
// all engine state is iterated in slice order, and the underlying driver
// is byte-identical with and without its execution cache. The same
// seed and config therefore produce a byte-identical canonical JSON
// report, which is what makes the engine a regression test and not just
// a load generator.
package scenario

import (
	"fmt"
	"math"

	"repro/internal/obj"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// Class is one session class of a scenario mix: a server pool with a
// per-request program, scheduling parameters, and a share of the session
// population.
type Class struct {
	Name string
	// Weight is the relative share of sessions drawn into this class.
	Weight int
	// Servers is the size of the resident server pool.
	Servers int
	// Priority and TimeSlice are the hardware dispatching parameters
	// requested for the pool (a policy may override them).
	Priority  uint16
	TimeSlice uint32
	// Spec is the per-request server program.
	Spec workload.ServerSpec
}

// Load is the part of a scenario that is the same question on one machine
// and on a cluster: who arrives, when, what they ask for, and the shape of
// the machine (each machine, on a cluster) that serves them.
type Load struct {
	Name string
	Seed int64

	// Sessions is the simulated user population; each session issues
	// RequestsPerSession requests (default 1).
	Sessions           int
	RequestsPerSession int

	// Processors and MemoryBytes configure the machine (default 4
	// processors). MemoryBytes 0 sizes a non-swapping machine from the
	// session population, never below the driver's 16 MB; a small
	// MemoryBytes plus Config.Swapping puts the memory manager on the
	// request path.
	Processors  int
	MemoryBytes uint32

	// Arrival selects the arrival process; MeanGap is the mean session
	// inter-arrival gap in cycles.
	Arrival Arrival
	MeanGap vtime.Cycles
	// ThinkMean is the mean think gap between a session's requests.
	ThinkMean vtime.Cycles

	// Classes is the session mix (required). On a cluster every node
	// hosts a server pool per class, so adding nodes adds capacity.
	Classes []Class
	// SessionData is the session object size in bytes (default 64;
	// must cover 4×max Touches).
	SessionData uint32

	// Policy selects the pm scheduling policy by name (pm.Select).
	Policy string

	// DrainBudget bounds the run past the last scheduled instant;
	// requests still unfinished then are censored at the deadline
	// rather than waited for — degraded-but-bounded reporting under
	// faults (default 20,000,000 cycles).
	DrainBudget vtime.Cycles
}

// Config fully determines a single-machine scenario. Result is a pure
// function of this struct: two runs of the same Config produce identical
// Results.
type Config struct {
	Load

	// Swapping selects the swapping memory manager.
	Swapping bool
	// CompactEvery runs mm compaction each time virtual time advances
	// that far (0: never) — segment motion under live load.
	CompactEvery vtime.Cycles

	// OpenLoop fixes every request instant from the seed alone (pure
	// open loop). Otherwise the engine is partly open: sessions arrive
	// open-loop but think times run from observed completions.
	OpenLoop bool

	// InjectEvents > 0 arms the fault injector with a plan of that many
	// events from InjectSeed over the first injectHorizon instructions.
	InjectSeed   int64
	InjectEvents int

	// Host backend knobs (results are byte-identical across them).
	NoExecCache bool
	Trace       bool
	// Ledger attaches the tamper-evident audit ledger (internal/ledger)
	// to the trace stream; the sealed ledger's Merkle root lands in the
	// Result, so the canonical fingerprint commits to the full event
	// history of the run.
	Ledger bool
}

// Values no caller of either engine ever varied. They are part of the
// determinism contract (every pinned fingerprint was taken at them), so
// they are constants, not options.
const (
	// stepQuantum is the driver step size, which is also the completion
	// measurement granularity and, on a cluster, the lockstep grid and
	// the wire latency.
	stepQuantum vtime.Cycles = 2_000
	// portCapacity sizes the request ports.
	portCapacity uint16 = 64
	// burstLen sizes bursty arrival trains.
	burstLen = 64
	// fairQuantum and rebalanceEvery parameterise the fair scheduler.
	fairQuantum    uint32       = 2_000
	rebalanceEvery vtime.Cycles = 20_000
	// injectHorizon is the instruction window an injection plan covers.
	injectHorizon uint64 = 200_000
)

// withDefaults fills zero fields; it never mutates the receiver.
func (l Load) withDefaults() Load {
	if l.RequestsPerSession == 0 {
		l.RequestsPerSession = 1
	}
	if l.Processors == 0 {
		l.Processors = 4
	}
	if l.Arrival == "" {
		l.Arrival = Poisson
	}
	if l.MeanGap == 0 {
		l.MeanGap = 500
	}
	if l.ThinkMean == 0 {
		l.ThinkMean = 10_000
	}
	if l.SessionData == 0 {
		l.SessionData = 64
	}
	if l.Policy == "" {
		l.Policy = "null"
	}
	if l.DrainBudget == 0 {
		l.DrainBudget = 20_000_000
	}
	return l
}

func (l Load) validate() error {
	if l.Sessions <= 0 {
		return fmt.Errorf("scenario %q: Sessions must be positive", l.Name)
	}
	if len(l.Classes) == 0 {
		return fmt.Errorf("scenario %q: at least one class required", l.Name)
	}
	for _, cl := range l.Classes {
		if cl.Weight <= 0 || cl.Servers <= 0 {
			return fmt.Errorf("scenario %q: class %q needs positive Weight and Servers", l.Name, cl.Name)
		}
		if 4*cl.Spec.Touches > l.SessionData {
			return fmt.Errorf("scenario %q: class %q touches %d dwords but sessions are %d bytes",
				l.Name, cl.Name, cl.Spec.Touches, l.SessionData)
		}
	}
	return nil
}

const (
	// defaultMemory is the machine gdp.New builds for MemoryBytes 0.
	defaultMemory = 16 << 20
	// memoryReserve is what a derived machine holds beyond its session
	// population: boot objects, server pools, ports, the injector's heap
	// and, on a cluster, the request copies in flight.
	memoryReserve = 4 << 20
)

// resolve fills defaults, validates, and sizes a non-swapping machine
// whose MemoryBytes is 0 to hold the whole session population and its
// anchor blocks, never below the driver default: every population up to
// ~170 000 × 64 B boots the 16 MB machine it always did.
func (l Load) resolve(swapping bool) (Load, error) {
	l = l.withDefaults()
	if err := l.validate(); err != nil {
		return l, err
	}
	if l.MemoryBytes != 0 || swapping {
		return l, nil
	}
	blocks := (uint64(l.Sessions)+2*uint64(len(l.Classes)))/(anchorSlots-1) + 1
	need := uint64(l.Sessions)*uint64(l.SessionData) + blocks*anchorSlots*obj.ADSlotSize + memoryReserve
	if need > math.MaxUint32 {
		return l, fmt.Errorf("scenario %q: %d sessions of %d bytes need %d bytes of memory, past the 32-bit machine",
			l.Name, l.Sessions, l.SessionData, need)
	}
	l.MemoryBytes = max(uint32(need), defaultMemory)
	return l, nil
}

// PresetNames lists the shipped scenario presets.
func PresetNames() []string {
	return []string{"baseline", "bursty", "mempressure", "chaos"}
}

// Preset returns a named scenario configuration scaled to the given
// session count:
//
//   - "baseline": Poisson arrivals over an interactive + batch mix on
//     the null policy — the headline open-loop SLO measurement.
//   - "bursty": the same mix under bursty arrival trains.
//   - "mempressure": large session objects in a small memory with the
//     swapping manager and periodic compaction, so eviction, organic
//     segment faults and segment motion sit on the request path.
//   - "chaos": the baseline mix with the fault injector armed — SLO
//     under faults. (Pure open loop, so the request schedule itself
//     cannot diverge under injections.)
func Preset(name string, sessions int, seed int64) (Config, error) {
	interactive := Class{
		Name: "interactive", Weight: 4, Servers: 8,
		Priority: 12, TimeSlice: 3_000,
		Spec: workload.ServerSpec{Demand: 20, Touches: 2},
	}
	batch := Class{
		Name: "batch", Weight: 1, Servers: 2,
		Priority: 3, TimeSlice: 8_000,
		Spec: workload.ServerSpec{Demand: 400, Touches: 4, DomainCalls: 1},
	}
	base := Config{Load: Load{
		Name:     name,
		Seed:     seed,
		Sessions: sessions,
		Classes:  []Class{interactive, batch},
	}}
	switch name {
	case "baseline":
		return base, nil
	case "bursty":
		base.Arrival = Bursty
		return base, nil
	case "mempressure":
		base.MemoryBytes = 1 << 21 // 2 MB: far below the session footprint
		base.Swapping = true
		base.CompactEvery = 100_000
		base.SessionData = 2048
		base.MeanGap = 2_000 // slower arrivals: swap transfers dominate
		return base, nil
	case "chaos":
		base.OpenLoop = true
		base.InjectEvents = 12
		return base, nil
	}
	return Config{}, fmt.Errorf("scenario: unknown preset %q (have %v)", name, PresetNames())
}
