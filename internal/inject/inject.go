package inject

import (
	"fmt"
	"io"

	"repro/internal/gc"
	"repro/internal/gdp"
	"repro/internal/mm"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/trace"
)

// Env names the injection surfaces of a configured system. Every field
// beyond the zero value widens the reachable taxonomy: without a Swapper
// swap-out events report themselves skipped, without a Collector
// destroy-mid-mark events do, and so on. Skipping is an outcome, not an
// error — a plan stays replayable against any configuration.
type Env struct {
	// Swapper enables KindSwapOut (and is the only way to force an
	// eviction between two instructions).
	Swapper *mm.Swapping
	// Collector enables KindDestroyMidMark, which steps it to its mark
	// phase.
	Collector *gc.Collector
	// FloodPorts are the candidate targets of KindPortFlood. Never
	// include a dispatching port: non-process messages there are a
	// system-level fault, not a process-level one.
	FloodPorts []obj.AD
	// Heaps are the candidate victims of KindSROExhaust; heaps with an
	// unbounded (zero) claim report the event skipped.
	Heaps []obj.AD
	// FillerHeap is where flood and exhaust filler objects are allocated
	// from when the event does not dictate a heap; it must be valid for
	// KindPortFlood to act.
	FillerHeap obj.AD
}

// Fired records one executed plan event: what it acted on and how it went.
// The log is part of the deterministic fingerprint of an injected run —
// two corners of the same seed must produce identical logs.
type Fired struct {
	Event
	Victim  obj.Index
	Outcome string
}

func (r Fired) String() string {
	return fmt.Sprintf("%v victim=%-5d %s", r.Event, r.Victim, r.Outcome)
}

// maxFloodMessages bounds one port-flood event; real port capacities in
// the harness are far below it.
const maxFloodMessages = 4096

// Injector executes a Plan against a running system. It implements
// gdp.Injector: the driver calls NextAt before every instruction and Fire
// at the planned instants.
type Injector struct {
	plan  Plan
	env   Env
	next  int
	fired []Fired
}

// New returns an injector for the plan over the given environment.
// Install it with gdp.System.SetInjector before running the workload.
func New(plan Plan, env Env) *Injector {
	return &Injector{plan: plan, env: env}
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// NextAt implements gdp.Injector.
func (in *Injector) NextAt() uint64 {
	if in.next >= len(in.plan.Events) {
		return ^uint64(0)
	}
	return in.plan.Events[in.next].At
}

// Fired returns the log of executed events so far.
func (in *Injector) Fired() []Fired { return in.fired }

// FiredByKind returns the count of executed events per kind, indexed by
// Kind in declaration order — a fixed-shape, deterministic summary for
// reports (unlike a map, its serialisation order never varies).
func (in *Injector) FiredByKind() []uint64 {
	out := make([]uint64, numKinds)
	for _, r := range in.fired {
		out[r.Kind]++
	}
	return out
}

// Report writes the deterministic fired-event log.
func (in *Injector) Report(w io.Writer) {
	fmt.Fprintf(w, "injected %d/%d events (seed %d)\n", len(in.fired), len(in.plan.Events), in.plan.Seed)
	for _, r := range in.fired {
		fmt.Fprintf(w, "  %v\n", r)
	}
}

// Fire implements gdp.Injector: execute every event due at the current
// instruction count, log each, and hand the first process-level fault back
// to the interpreter for ordinary delivery. Events after the first
// fault-producing one still execute (their mutations are environmental,
// and at most one fault can be delivered per instruction boundary anyway);
// a second fault-producing event in the same batch is recorded coalesced.
func (in *Injector) Fire(s *gdp.System, cpu *gdp.CPU) *obj.Fault {
	var deliver *obj.Fault
	now := s.Stats().Instructions
	for in.next < len(in.plan.Events) && in.plan.Events[in.next].At <= now {
		ev := in.plan.Events[in.next]
		in.next++
		victim, outcome, f := in.fireOne(s, cpu, ev)
		if f != nil {
			if deliver == nil {
				deliver = f
			} else {
				outcome += " (coalesced: an earlier event's fault is already being delivered)"
			}
		}
		if l := s.Tracer(); l != nil {
			l.Emit(trace.EvInject, uint32(victim), uint32(ev.Kind), ev.At)
		}
		in.fired = append(in.fired, Fired{Event: ev, Victim: victim, Outcome: outcome})
	}
	return deliver
}

// fireOne executes a single event. It returns the primary victim index, a
// deterministic outcome description, and — for the process-fault kinds —
// the fault to deliver to the process bound to cpu. Environmental errors
// (nothing swappable, claim unreadable) are recorded in the outcome and
// never surface as system faults.
func (in *Injector) fireOne(s *gdp.System, cpu *gdp.CPU, ev Event) (obj.Index, string, *obj.Fault) {
	switch ev.Kind {
	case KindMemFault:
		p := cpu.Current()
		return p.Index, "memory access fault delivered",
			obj.Faultf(obj.FaultBounds, p, "injected memory access fault")

	case KindRightsFault:
		p := cpu.Current()
		return p.Index, "rights violation delivered",
			obj.Faultf(obj.FaultRights, p, "injected rights violation")

	case KindPortFlood:
		return in.floodPort(s, ev)

	case KindDestroyMidMark:
		return in.destroyMidMark(s, ev)

	case KindSROExhaust:
		return in.exhaustSRO(s, ev)

	case KindSwapOut:
		if in.env.Swapper == nil {
			return obj.NilIndex, "skipped: no swapping memory manager", nil
		}
		victim, ok, f := in.env.Swapper.EvictVictim()
		if f != nil {
			return victim, fmt.Sprintf("eviction failed: %v", f), nil
		}
		if !ok {
			return obj.NilIndex, "skipped: nothing swappable", nil
		}
		return victim, "swapped out between instructions", nil

	case KindCPUOffline:
		id := int(ev.Arg % uint64(len(s.CPUs)))
		c := s.CPUs[id]
		if !c.Online() {
			return c.Obj.Index, fmt.Sprintf("skipped: processor %d already offline", id), nil
		}
		if s.OnlineProcessors() <= 2 {
			// Two processors stay in service, not one: the §7.3 fault
			// handler is a high-priority polling daemon, and on a lone
			// processor it would win every dispatch and starve user
			// processes forever — a scheduling property of the poll
			// design, not the damage this harness measures.
			return c.Obj.Index, fmt.Sprintf("skipped: taking processor %d offline would leave fewer than two in service", id), nil
		}
		// SetProcessorOnline refuses only an id out of range, and id is
		// taken modulo the processor count.
		s.SetProcessorOnline(id, false)
		return c.Obj.Index, fmt.Sprintf("processor %d taken offline", id), nil

	case KindCPUOnline:
		id := int(ev.Arg % uint64(len(s.CPUs)))
		c := s.CPUs[id]
		if c.Online() {
			return c.Obj.Index, fmt.Sprintf("skipped: processor %d already online", id), nil
		}
		s.SetProcessorOnline(id, true)
		return c.Obj.Index, fmt.Sprintf("processor %d returned to service", id), nil
	}
	return obj.NilIndex, fmt.Sprintf("skipped: unknown kind %v", ev.Kind), nil
}

// floodPort fills the selected port to capacity with fresh filler objects.
// The fillers are dropped immediately — unreferenced, the collector
// reclaims them once the port drains — but while queued they make every
// send (a worker's, or a fault delivery's) find the port full.
func (in *Injector) floodPort(s *gdp.System, ev Event) (obj.Index, string, *obj.Fault) {
	if len(in.env.FloodPorts) == 0 {
		return obj.NilIndex, "skipped: no flood ports", nil
	}
	if !in.env.FillerHeap.Valid() {
		return obj.NilIndex, "skipped: no filler heap", nil
	}
	prt := in.env.FloodPorts[int(ev.Arg%uint64(len(in.env.FloodPorts)))]
	sent := 0
	for i := 0; i < maxFloodMessages; i++ {
		filler, f := s.SROs.Create(in.env.FillerHeap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
		if f != nil {
			return prt.Index, fmt.Sprintf("flood stopped after %d messages: %v", sent, f), nil
		}
		ok, f := s.SendMessage(prt, filler, 0)
		if f != nil {
			return prt.Index, fmt.Sprintf("flood stopped after %d messages: %v", sent, f), nil
		}
		if !ok {
			return prt.Index, fmt.Sprintf("port full after %d filler messages", sent), nil
		}
		sent++
	}
	return prt.Index, fmt.Sprintf("flood capped at %d messages without filling the port", sent), nil
}

// destroyMidMark destroys a victim object while the collector is marking —
// the race §8.1's on-the-fly design must survive. It prefers a terminated
// process (the paper's "process destroy" case: the object vanishes while
// possibly gray on the mark stack); failing that, any unpinned generic no
// port or carrier holds as a message. Destruction goes through sro.Reclaim
// so storage accounting stays exact — the injection is adversarial
// scheduling, not memory corruption, and the collector never reclaims a
// queued message: the port would hold a dangling capability.
func (in *Injector) destroyMidMark(s *gdp.System, ev Event) (obj.Index, string, *obj.Fault) {
	if in.env.Collector == nil {
		return obj.NilIndex, "skipped: no collector", nil
	}
	// The daemon runs below every worker's priority and seldom reaches a
	// mark phase inside a plan's horizon, so the event brings the race
	// about itself: it runs the collector, between two instructions as the
	// daemon's processor would, up to its next mark phase. That is
	// adversarial scheduling, like the destruction; not corruption. Every
	// phase ends after one pass over the table, so the loop does.
	for c := in.env.Collector; c.Phase() != gc.PhaseMark; {
		if _, _, f := c.Step(1); f != nil {
			return obj.NilIndex, fmt.Sprintf("skipped: collector faulted before its mark phase: %v", f), nil
		}
	}
	queued := make(map[obj.Index]bool)
	for i := 1; i < s.Table.Len(); i++ {
		if d := s.Table.DescriptorAt(obj.Index(i)); d != nil && (d.Type == obj.TypePort || d.Type == obj.TypeCarrier) {
			_ = s.Table.Referents(obj.Index(i), func(ad obj.AD) { queued[ad.Index] = true })
		}
	}
	procVictim, genVictim := obj.NilIndex, obj.NilIndex
	for i := 1; i < s.Table.Len(); i++ {
		idx := obj.Index(i)
		d := s.Table.DescriptorAt(idx)
		if d == nil || d.Pinned || d.SwappedOut || d.SRO == obj.NilIndex {
			continue
		}
		switch d.Type {
		case obj.TypeProcess:
			if procVictim == obj.NilIndex {
				p, _ := s.Table.SystemAD(idx)
				if st, f := s.Procs.StateOf(p); f == nil && st == process.StateTerminated {
					procVictim = idx
				}
			}
		case obj.TypeGeneric:
			if genVictim == obj.NilIndex && !queued[idx] {
				genVictim = idx
			}
		}
		if procVictim != obj.NilIndex {
			break
		}
	}
	victim, what := procVictim, "terminated process"
	if victim == obj.NilIndex {
		victim, what = genVictim, "generic object"
	}
	if victim == obj.NilIndex {
		return obj.NilIndex, "skipped: no destroyable victim", nil
	}
	if f := s.SROs.Reclaim(victim); f != nil {
		return victim, fmt.Sprintf("destroy failed: %v", f), nil
	}
	return victim, fmt.Sprintf("destroyed %s mid-mark", what), nil
}

// exhaustSRO allocates away the selected heap's remaining claim so the
// victim's own next allocation raises the storage-claim fault organically.
// The filler objects are dropped; once the collector reclaims them the
// claim loosens again — exhaustion is a transient condition, exactly as a
// real storage leak would present.
func (in *Injector) exhaustSRO(s *gdp.System, ev Event) (obj.Index, string, *obj.Fault) {
	if len(in.env.Heaps) == 0 {
		return obj.NilIndex, "skipped: no victim heaps", nil
	}
	heap := in.env.Heaps[int(ev.Arg%uint64(len(in.env.Heaps)))]
	claim, used, _, f := s.SROs.Usage(heap)
	if f != nil {
		return heap.Index, fmt.Sprintf("skipped: usage unreadable: %v", f), nil
	}
	if claim == 0 {
		return heap.Index, "skipped: unbounded claim", nil
	}
	var total uint32
	for chunk := claim - used; chunk > 0; {
		_, f := s.SROs.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: chunk})
		if f != nil {
			chunk /= 2
			continue
		}
		total += chunk
		_, u, _, f2 := s.SROs.Usage(heap)
		if f2 != nil {
			break
		}
		chunk = claim - u
	}
	return heap.Index, fmt.Sprintf("exhausted claim: %d filler bytes allocated (claim %d)", total, claim), nil
}

var _ gdp.Injector = (*Injector)(nil)
