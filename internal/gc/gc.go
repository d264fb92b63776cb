// Package gc implements iMAX's system-wide garbage collector (§8.1 of the
// paper): an on-the-fly parallel mark-sweep collector after Dijkstra et
// al., cooperating with the mutators only through the gray bit the
// AD-move microcode maintains (obj.Table.StoreAD), plus the destruction
// filters of §8.2 that deliver garbage instances of registered types to
// their type managers instead of silently reclaiming them.
//
// The collector is written as a bounded-step state machine so it can run
// as an ordinary daemon process in the dispatch mix ("The iMAX garbage
// collector is implemented as a daemon process that globally scans the
// system. It requires only minimal synchronization with the rest of the
// operating system"). A one-call Collect runs the same machine to
// completion, which doubles as the stop-the-world baseline for the E6
// experiment.
//
// Correctness sketch in this setting: work is divided into whiten, root,
// mark and sweep phases, each interleaving freely with mutators under the
// lock-step driver. During whiten and root phases nothing is black, so no
// black-to-white edge can exist. During mark, every AD store (user or
// system path) shades the stored capability's target, and new objects are
// born gray, so a reachable white object can lose its last unscanned
// parent only by being shaded itself. The mark phase terminates only
// after a full table pass finds no gray object. Sweep then reclaims
// whites, which are unreachable by the invariant.
package gc

import (
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/sro"
	"repro/internal/trace"
	"repro/internal/typedef"
	"repro/internal/vtime"
)

// Phase identifies the collector's position in a cycle.
type Phase uint8

const (
	// PhaseIdle: between cycles.
	PhaseIdle Phase = iota
	// PhaseWhiten: resetting colours for a new cycle.
	PhaseWhiten
	// PhaseRoot: shading the pinned roots.
	PhaseRoot
	// PhaseMark: propagating grayness until a clean pass.
	PhaseMark
	// PhaseSweep: reclaiming or filtering whites.
	PhaseSweep
)

func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseWhiten:
		return "whiten"
	case PhaseRoot:
		return "root"
	case PhaseMark:
		return "mark"
	case PhaseSweep:
		return "sweep"
	}
	return "phase(?)"
}

// Stats are cumulative collector counters.
type Stats struct {
	Cycles    uint64 // completed collection cycles
	Marked    uint64 // objects blackened
	Reclaimed uint64 // objects destroyed
	Filtered  uint64 // objects delivered to destruction filters
	Passes    uint64 // mark passes over the table
}

// Collector is the on-the-fly collector state machine.
type Collector struct {
	Table *obj.Table
	SROs  *sro.Manager
	Ports *port.Manager
	TDOs  *typedef.Manager

	phase     Phase
	cursor    int
	foundGray bool // grays seen in the current mark pass

	// pendingWakes accumulates processes unblocked by filter-port
	// deliveries; the embedding system drains them after each Step.
	pendingWakes []port.Wake

	stats Stats
}

// New returns a collector over the given managers.
func New(t *obj.Table, s *sro.Manager, p *port.Manager, td *typedef.Manager) *Collector {
	return &Collector{Table: t, SROs: s, Ports: p, TDOs: td}
}

// Phase reports the collector's current phase.
func (c *Collector) Phase() Phase { return c.phase }

// setPhase moves the machine to a new phase, tracing the transition.
func (c *Collector) setPhase(p Phase) {
	c.phase = p
	if l := c.Table.Tracer(); l != nil {
		l.Emit(trace.EvGCPhase, uint32(p), 0, 0)
	}
}

// Stats reports cumulative counters.
func (c *Collector) Stats() Stats { return c.stats }

// Step performs up to work units of collector work and reports the cycles
// charged and whether a collection cycle completed during this step. A
// unit is roughly one object visited.
func (c *Collector) Step(work int) (vtime.Cycles, bool, *obj.Fault) {
	var spent vtime.Cycles
	completed := false
	for work > 0 {
		w, done, f := c.step1()
		spent += w
		if f != nil {
			return spent, completed, f
		}
		if done {
			completed = true
		}
		work--
	}
	return spent, completed, nil
}

// Collect runs one full collection cycle to completion — the
// stop-the-world baseline (and the synchronous mode used by tests). It
// reports the cycles the collection consumed.
func (c *Collector) Collect() (vtime.Cycles, *obj.Fault) {
	// Finish any in-flight cycle first, then run exactly one more.
	var spent vtime.Cycles
	ranFresh := c.phase == PhaseIdle
	for {
		w, done, f := c.step1()
		spent += w
		if f != nil {
			return spent, f
		}
		if done {
			if ranFresh {
				return spent, nil
			}
			ranFresh = true
		}
	}
}

// step1 advances the machine by one unit.
func (c *Collector) step1() (vtime.Cycles, bool, *obj.Fault) {
	switch c.phase {
	case PhaseIdle:
		c.setPhase(PhaseWhiten)
		c.cursor = 1
		return vtime.CostGCSweepStep, false, nil

	case PhaseWhiten:
		if c.cursor >= c.Table.Len() {
			c.setPhase(PhaseRoot)
			c.cursor = 1
			return vtime.CostGCSweepStep, false, nil
		}
		idx := obj.Index(c.cursor)
		c.cursor++
		if _, live := c.Table.ColorOf(idx); live {
			c.Table.SetColor(idx, obj.White)
		}
		return vtime.CostGCSweepStep, false, nil

	case PhaseRoot:
		if c.cursor >= c.Table.Len() {
			c.setPhase(PhaseMark)
			c.cursor = 1
			c.foundGray = false
			return vtime.CostGCSweepStep, false, nil
		}
		idx := obj.Index(c.cursor)
		c.cursor++
		if c.Table.IsPinned(idx) {
			c.Table.SetColor(idx, obj.Gray)
		}
		return vtime.CostGCSweepStep, false, nil

	case PhaseMark:
		if c.cursor >= c.Table.Len() {
			c.stats.Passes++
			if !c.foundGray {
				c.setPhase(PhaseSweep)
				c.cursor = 1
				return vtime.CostGCMarkStep, false, nil
			}
			c.cursor = 1
			c.foundGray = false
			return vtime.CostGCMarkStep, false, nil
		}
		idx := obj.Index(c.cursor)
		c.cursor++
		col, live := c.Table.ColorOf(idx)
		if !live || col != obj.Gray {
			return vtime.CostGCMarkStep, false, nil
		}
		c.foundGray = true
		// Shade the children, blacken the parent. A swapped-out
		// object cannot be scanned; leave it gray — the memory
		// manager's residency guarantees it will return, and the
		// cycle simply takes another pass. (Production iMAX swapped
		// access parts in for the collector; we keep the simpler
		// rule.)
		if f := c.Table.Referents(idx, func(ad obj.AD) {
			if col, live := c.Table.ColorOf(ad.Index); live && col == obj.White {
				c.Table.SetColor(ad.Index, obj.Gray)
			}
		}); f != nil {
			if f.Code == obj.FaultSegmentMoved {
				return vtime.CostGCMarkStep, false, nil
			}
			return vtime.CostGCMarkStep, false, f
		}
		c.Table.SetColor(idx, obj.Black)
		c.stats.Marked++
		if l := c.Table.Tracer(); l != nil {
			l.Emit(trace.EvGCMark, uint32(idx), 0, 0)
		}
		return vtime.CostGCMarkStep, false, nil

	case PhaseSweep:
		if c.cursor >= c.Table.Len() {
			c.setPhase(PhaseIdle)
			c.stats.Cycles++
			return vtime.CostGCSweepStep, true, nil
		}
		idx := obj.Index(c.cursor)
		c.cursor++
		col, live := c.Table.ColorOf(idx)
		if !live || col != obj.White {
			return vtime.CostGCSweepStep, false, nil
		}
		return c.disposeWhite(idx)
	}
	return 0, false, obj.Faultf(obj.FaultOddity, obj.NilAD, "collector in unknown phase")
}

// disposeWhite reclaims a garbage object, or delivers it to its type's
// destruction filter (§8.2): "The garbage collector will manufacture an
// access descriptor for such objects and send them to a port defined by
// the type manager."
func (c *Collector) disposeWhite(idx obj.Index) (vtime.Cycles, bool, *obj.Fault) {
	d := c.Table.DescriptorAt(idx)
	if d == nil {
		return vtime.CostGCSweepStep, false, nil
	}
	if d.UserType != obj.NilIndex && !d.Finalized() {
		if fport, armed := c.TDOs.FilterPort(d.UserType); armed {
			ad, _ := c.Table.SystemAD(idx)
			blocked, wake, f := c.Ports.Send(fport, ad, 0, obj.NilAD)
			if f == nil && !blocked {
				// Delivered: the object is reachable from the
				// filter port now. One delivery per garbage
				// life.
				d.Flags |= obj.FlagFinalized
				c.Table.SetColor(idx, obj.Black)
				c.stats.Filtered++
				if l := c.Table.Tracer(); l != nil {
					l.Emit(trace.EvGCFilter, uint32(idx), uint32(d.UserType), 0)
				}
				// A type manager blocked on its filter port
				// wakes through the normal machinery; the
				// caller of Step cannot requeue processes, so
				// the wake is handed back via pendingWakes.
				if wake != nil {
					c.pendingWakes = append(c.pendingWakes, *wake)
				}
				return vtime.CostGCSweepStep + vtime.CostSend, false, nil
			}
			// Filter port full or damaged: leave the object for
			// the next cycle rather than lose the resource.
			c.Table.SetColor(idx, obj.Black)
			return vtime.CostGCSweepStep, false, nil
		}
	}
	if f := c.SROs.Reclaim(idx); f != nil {
		return vtime.CostGCSweepStep, false, f
	}
	c.stats.Reclaimed++
	if l := c.Table.Tracer(); l != nil {
		l.Emit(trace.EvGCReclaim, uint32(idx), 0, 0)
	}
	return vtime.CostGCSweepStep, false, nil
}

// DrainWakes returns and clears the processes woken by destruction-filter
// deliveries since the last drain. The embedding system must return them
// to its dispatch mix.
func (c *Collector) DrainWakes() []port.Wake {
	w := c.pendingWakes
	c.pendingWakes = nil
	return w
}
