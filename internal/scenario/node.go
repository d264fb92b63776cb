package scenario

// node.go: what the single-machine engine and the cluster engine share —
// an Engine is one node plus its event loop, a ShardEngine is N nodes plus
// the lockstep loop and the wire — and the one seeded population both draw.

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/obj"
	"repro/internal/pm"
	"repro/internal/port"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// ClassRt is the built runtime of one class on one machine: its server
// pool, request port and overflow backlog, and (single-machine engine
// only; the cluster measures per class across nodes) its measurements.
type ClassRt struct {
	Class
	ReqPort   obj.AD
	Servers   []obj.AD
	Domain    obj.AD
	Callee    obj.AD
	Hist      vtime.Hist
	Sessions  int
	Issued    uint64
	Completed uint64
	Censored  uint64
	Deferred  uint64

	// pending is the engine-side overflow queue: objects whose send
	// found the request port full. Open-loop latency includes this wait.
	pending []obj.AD
}

// node is one machine's engine-side state.
type node struct {
	IM        *core.IMAX
	Sel       *pm.Selection
	Classes   []ClassRt
	ReplyPort obj.AD
	// FaultPort parks servers that fault when no swapping fault service
	// is configured (under swapping, servers use IM.SegFaultPort).
	FaultPort obj.AD
}

// build creates the machine's server side under the load's policy. The
// creation order (policy select, reply port, fault port unless swapping,
// then per class: domain, request port, servers; then launch) assigns
// object-table indices and is in the traced set-up, so it is part of the
// determinism contract. The objects are created straight through: the
// latch keeps the first refusal, and build checks it once, at the end.
func (n *node) build(load *Load) error {
	im := n.IM
	sel, err := pm.Select(load.Policy, im.PM, fairQuantum)
	if err != nil {
		return err
	}
	n.Sel = sel

	var l obj.Latch
	n.ReplyPort = l.AD(im.Ports.Create(im.Heap, 256, port.FIFO))

	faultPort := im.SegFaultPort
	if im.Swapper == nil {
		totalServers := 0
		for _, cl := range load.Classes {
			totalServers += cl.Servers
		}
		n.FaultPort = l.AD(im.Ports.Create(im.Heap, uint16(totalServers+8), port.FIFO))
		faultPort = n.FaultPort
	}

	// Server pools, spawned through the pm layer under the policy.
	for _, cl := range load.Classes {
		dom, callee, f := workload.NewServerDomain(im.System, cl.Spec)
		l.Keep(f)
		req := l.AD(im.Ports.Create(im.Heap, portCapacity, port.FIFO))
		rt := ClassRt{Class: cl, ReqPort: req, Domain: dom, Callee: callee}
		for s := 0; s < cl.Servers; s++ {
			p := l.AD(im.PM.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{
				Priority:  cl.Priority,
				TimeSlice: cl.TimeSlice,
				FaultPort: faultPort,
				AArgs:     [4]obj.AD{callee, obj.NilAD, req, n.ReplyPort},
			}))
			l.Keep(sel.Adopt(p))
			rt.Servers = append(rt.Servers, p)
		}
		n.Classes = append(n.Classes, rt)
	}
	l.Keep(sel.Launch(rebalanceEvery, 14))
	if f := l.Fault(); f != nil {
		return fmt.Errorf("server side: %w", f)
	}
	return nil
}

// send enqueues an object on a class's request port, spilling to the
// FIFO backlog when the port is full (or the backlog is not yet empty).
func (n *node) send(class int, ad obj.AD) {
	cl := &n.Classes[class]
	if len(cl.pending) == 0 {
		if ok, f := n.IM.SendMessage(cl.ReqPort, ad, 0); f == nil && ok {
			return
		}
	}
	cl.pending = append(cl.pending, ad)
	cl.Deferred++
}

// flush retries deferred sends in FIFO order, per class, and pops what the
// port took by copying the rest down: a backlog refills in the room it has.
func (n *node) flush() {
	for ci := range n.Classes {
		cl := &n.Classes[ci]
		sent := 0
		for sent < len(cl.pending) {
			ok, f := n.IM.SendMessage(cl.ReqPort, cl.pending[sent], 0)
			if f != nil || !ok {
				break
			}
			sent++
		}
		cl.pending = cl.pending[:copy(cl.pending, cl.pending[sent:])]
	}
}

// advance moves every processor clock that is behind t up to t, the way
// gdp.Run advances an idle machine to its next timer.
func (n *node) advance(t vtime.Cycles) {
	for _, cpu := range n.IM.CPUs {
		if now := cpu.Clock.Now(); t > now {
			cpu.Clock.AdvanceTo(t)
			cpu.IdleCycles += t - now
		}
	}
}

// wake is the earlier of t and the machine's next pending timer.
func (n *node) wake(t vtime.Cycles) vtime.Cycles {
	if n.IM.TimersPending() > 0 {
		t = min(t, n.IM.NextTimer())
	}
	return t
}

// schedule is an engine's agenda: the sessions' arrival instants, which
// arrivalTimes draws non-decreasing in session order, and a cursor at the
// first session whose request is not yet issued. Session order is
// therefore issue order, and two sessions due at one instant are issued
// in session order — part of every fingerprint.
type schedule struct {
	at   []vtime.Cycles
	head int
}

// due reports whether the next request is due at or before now.
func (s *schedule) due(now vtime.Cycles) bool { return s.head < len(s.at) && s.at[s.head] <= now }

// next reports the next request's instant, if one is left to issue.
func (s *schedule) next() (vtime.Cycles, bool) {
	if s.head < len(s.at) {
		return s.at[s.head], true
	}
	return 0, false
}

// pop returns the session whose request is next and moves past it.
func (s *schedule) pop() int {
	s.head++
	return s.head - 1
}

// last is the latest instant of the schedule (a population is never
// empty): the drain deadline runs from it.
func (s *schedule) last() vtime.Cycles { return s.at[len(s.at)-1] }

// population draws the seeded session population in session order, hands
// each session to each — its class and its arrival instant — and returns
// the schedule of their requests. Class and arrival draws come from two
// streams of the seed, so adding draws to one axis never perturbs the
// other.
func population(l *Load, each func(i, class int, arrive vtime.Cycles)) schedule {
	rngClass := rand.New(rand.NewSource(l.Seed ^ 0x5e551017))
	rngArr := rand.New(rand.NewSource(l.Seed ^ 0x0a221e5d))
	arr := arrivalTimes(rngArr, l.Arrival, l.Sessions, l.MeanGap)
	totW := 0
	for _, cl := range l.Classes {
		totW += cl.Weight
	}
	for i, at := range arr {
		ci, w := 0, rngClass.Intn(totW)
		for w >= l.Classes[ci].Weight {
			w -= l.Classes[ci].Weight
			ci++
		}
		each(i, ci, at)
	}
	return schedule{at: arr}
}
