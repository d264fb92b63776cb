// Sharded open-loop scenarios: the scenario engine driven over a
// cluster of independent kernels (internal/cluster) instead of one
// machine. Sessions hash to home nodes; a configured fraction of
// requests migrate — the home node ships the session object as a
// passivated graph to another node, the remote node serves the request
// against the activated copy, and the mutated copy ships back and is
// folded into the canonical session object. Filing is therefore on the
// hot path of every migrated request, and the transfer auditor's
// single-ownership and reconciliation invariants hold at every step
// boundary of the run.
//
// Time is lockstep virtual time: every node's every processor advances
// through the same stepQuantum grid, and wire messages shipped during
// one step are delivered at the start of the next — a one-quantum wire
// latency, deterministic by construction. Filing and wire work costs no
// virtual cycles in this model (the serialization cost shows up in
// host time, not simulated time); what the model does charge is the
// quantum-granular round trip and the remote node's queueing, which is
// what shapes migrated-request latency.
package scenario

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obj"
	"repro/internal/pm"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// ShardConfig fully determines a sharded scenario; ShardResult is a pure
// function of it. The Load is global — sessions arrive to the cluster,
// their home node is a property of the session, not of the schedule —
// except Processors and MemoryBytes, which shape each node.
type ShardConfig struct {
	Load

	// Nodes is the kernel count (default 2); sessions hash across them.
	Nodes int
	// MigratePermille is the probability (‰) that a session's request
	// is served on a node other than its home. With one node there is
	// nowhere to migrate and the knob is ignored.
	MigratePermille int
}

// ShardPreset returns the standard sharded session mix scaled to a node
// and session count: the baseline interactive+batch classes with
// arrivals fast enough to saturate a single node, so added nodes turn
// into added throughput rather than added idle.
func ShardPreset(nodes, sessions int, seed int64) ShardConfig {
	return ShardConfig{
		Nodes:           nodes,
		MigratePermille: 150,
		Load: Load{
			Name:     fmt.Sprintf("shard-%dn", nodes),
			Seed:     seed,
			Sessions: sessions,
			// Arrivals well above one node's service rate: an open-loop
			// saturation probe.
			Processors: 4,
			MeanGap:    60,
			Classes: []Class{
				{
					Name: "interactive", Weight: 4, Servers: 8,
					Priority: 12, TimeSlice: 3_000,
					Spec: workload.ServerSpec{Demand: 60, Touches: 2},
				},
				{
					Name: "batch", Weight: 1, Servers: 4,
					Priority: 3, TimeSlice: 8_000,
					Spec: workload.ServerSpec{Demand: 900, Touches: 4, DomainCalls: 1},
				},
			},
		},
	}
}

// shardSession is one simulated user, 20 bytes. Its canonical session object
// lives on its home node, homeOf its id, and its one request is served on
// Dest, which is the home unless the request migrates.
type shardSession struct {
	Session
	Dest uint8 // a node id fits in a byte (cluster.MaxNodes)
}

// shardNode is one kernel's engine-side state: the node the
// single-machine engine also runs, plus the cluster's bookkeeping. A tick
// touches this and the cluster node, and only reads the sessions.
type shardNode struct {
	node
	cl          *cluster.Node
	sessions    []shardSession
	sessionData uint32

	// byObj maps an object on this node's reply port to what it stands for:
	// a canonical session object to its session id, where the session is
	// homed, and the root of an activated request copy to ^slot of copies,
	// where the request is served away from home.
	byObj obj.Side[int32]

	// copies holds the request copies in service here, each with its
	// session and its activated graph, reclaimed once the reply ships. A
	// slot whose copy shipped is on free until the next copy takes it.
	copies []servedCopy
	free   []int32

	// in is what Deliver handed this node for the next tick; out is what
	// the last one left for the merge.
	in  []cluster.Msg
	out outbox

	homed     int    // sessions homed here
	Completed uint64 // requests completed for sessions homed here
	Served    uint64 // requests whose service ran here (home or migrated)
}

// outbox is a node tick's effect on state the nodes share — the transfer
// ledger, the wire, the sessions' completions and the histograms — held
// for the merge in the order the tick made it.
type outbox struct {
	// activated is the object count of each graph the tick activated, one
	// for each message of the node's in, in order: its flight closes, and a
	// reply completes its request.
	activated []uint32
	// departures are the requests the tick drained from the reply port: a
	// completion where the session is homed, else a reply image to post.
	departures []departure
}

type servedCopy struct {
	sid   int32
	graph []obj.AD
}

type departure struct {
	img     []byte // nil for a completion
	sid     int32
	objects uint32
}

// ShardEngine drives one sharded scenario run.
type ShardEngine struct {
	Cfg     ShardConfig
	Cluster *cluster.Cluster

	nodes    []*shardNode
	sessions []shardSession

	schedule
	now vtime.Cycles

	all      vtime.Hist
	perClass []vtime.Hist

	totIssued, totCompleted, totCensored uint64
	migIssued, migCompleted              uint64

	// StepHook, when set before Run, is called after every lockstep
	// iteration — the soak tests audit cross-node accounting mid-run
	// through it. It must not mutate engine or cluster state.
	StepHook func(e *ShardEngine)

	ran bool
}

// NewShard boots a cluster and builds the sharded scenario: per-node
// server pools under the policy, the hashed session population with
// pre-drawn routes, and the global arrival schedule.
func NewShard(cfg ShardConfig) (*ShardEngine, error) {
	// A node whose MemoryBytes is 0 is sized for the whole population:
	// the hash spreads homes evenly, but request copies land anywhere.
	var err error
	if cfg.Load, err = cfg.Load.resolve(false); err != nil {
		return nil, err
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if cfg.Nodes < 0 {
		return nil, fmt.Errorf("shard %q: Nodes must be positive", cfg.Name)
	}
	if cfg.MigratePermille < 0 || cfg.MigratePermille > 1000 {
		return nil, fmt.Errorf("shard %q: MigratePermille %d outside [0,1000]", cfg.Name, cfg.MigratePermille)
	}
	cl, err := cluster.New(cluster.Config{
		Nodes: cfg.Nodes,
		Node: core.Config{
			Processors:       cfg.Processors,
			MemoryBytes:      cfg.MemoryBytes,
			DeadlineDispatch: pm.PolicyNeedsDeadlineDispatch(cfg.Policy),
		},
	})
	if err != nil {
		return nil, fmt.Errorf("shard %q: %w", cfg.Name, err)
	}
	e := &ShardEngine{Cfg: cfg, Cluster: cl, perClass: make([]vtime.Hist, len(cfg.Classes))}
	e.sessions = make([]shardSession, cfg.Sessions)
	for ni, n := range cl.Nodes {
		sn := &shardNode{
			node: node{IM: n.IM}, cl: n, sessions: e.sessions, sessionData: cfg.SessionData,
			byObj: obj.NewSide[int32](n.IM.Table),
		}
		if err := sn.build(&cfg.Load); err != nil {
			return nil, fmt.Errorf("shard %q: node %d: %w", cfg.Name, ni, err)
		}
		e.nodes = append(e.nodes, sn)
	}

	// Home is a multiplicative hash of the session id — placement is a
	// property of identity, not of the arrival order — so each node's table
	// and reply map are sized first for exactly the sessions homed there,
	// what its servers create when they start, and the request copies its
	// request ports can hold (copies past those wait in the engine's
	// backlog), and its store of copies for those copies: neither set-up nor
	// a run below the knee grows them.
	homed := make([]int, cfg.Nodes)
	for i := range e.sessions {
		homed[homeOf(i, cfg.Nodes)]++
	}
	copies := len(cfg.Classes) * int(portCapacity)
	for ni, sn := range e.nodes {
		sn.homed = homed[ni]
		room := homed[ni] + sn.runRoom() + copies
		sn.IM.Table.Reserve(room)
		sn.IM.Table.ReserveFree(sn.runRoom() + copies)
		sn.byObj.Reserve(room)
		sn.copies, sn.free = make([]servedCopy, 0, copies), make([]int32, 0, copies)
		sn.out.activated = make([]uint32, 0, copies)
		sn.out.departures = make([]departure, 0, copies)
	}

	// Routing has its own seeded stream. The session objects are created
	// straight through, each node's heap opened once for its share: the
	// latch keeps the first refusal, checked once at the end.
	rngRoute := rand.New(rand.NewSource(cfg.Seed ^ 0x3a9d0c11))
	var l obj.Latch
	heaps := make([]obj.View, cfg.Nodes)
	for ni, sn := range e.nodes {
		sn.IM.SROs.Open(sn.IM.Heap, &heaps[ni])
	}
	migrating := 0
	e.schedule = population(&cfg.Load, func(i, class int) {
		home := homeOf(i, cfg.Nodes)
		so := l.AD(e.nodes[home].IM.SROs.CreateIn(&heaps[home], obj.CreateSpec{
			Type:    obj.TypeGeneric,
			DataLen: cfg.SessionData,
		}))
		dest := home
		// The route draw is consumed unconditionally so the route of
		// every other session is invariant under the knob.
		roll := rngRoute.Intn(1000)
		pick := rngRoute.Intn(max(cfg.Nodes-1, 1))
		if cfg.Nodes > 1 && roll < cfg.MigratePermille {
			dest = (home + 1 + pick) % cfg.Nodes
			migrating++
		}
		e.sessions[i] = shardSession{Session: Session{Obj: so, Class: uint8(class)}, Dest: uint8(dest)}
		e.nodes[home].byObj.Put(so.Index, int32(i))
	})
	// A migrating session's request and reply are the only graphs a run
	// ships, so the transfer ledger is sized once for all of them; and each
	// is a copy of a session object, so one session's graph sizes every
	// image buffer and created list. Where requests migrate, a node below
	// the knee has no more graphs in flight than it has copies in service.
	size, objects, f := e.nodes[homeOf(0, cfg.Nodes)].IM.Files.Measure(e.sessions[0].Obj)
	l.Keep(f)
	if f := l.Fault(); f != nil {
		return nil, fmt.Errorf("shard %q: population: %w", cfg.Name, f)
	}
	flights := 0
	if cfg.Nodes > 1 && cfg.MigratePermille > 0 {
		flights = copies
	}
	cl.Reserve(2*migrating, flights, size, objects)
	return e, nil
}

// homeOf is session i's home node among nodes: a multiplicative hash of the
// session id.
func homeOf(i, nodes int) int { return int(uint32(uint64(i)*0x9E3779B97F4A7C15>>33) % uint32(nodes)) }

// issue sends session sid's request at its arrival instant: the latency
// clock runs from that instant no matter how the request routes.
func (e *ShardEngine) issue(sid int) error {
	s := &e.sessions[sid]
	s.Issued++
	e.totIssued++
	home := homeOf(sid, len(e.nodes))
	if int(s.Dest) == home {
		e.nodes[home].send(s.Class, s.Obj)
		return nil
	}
	// Migrated request: the canonical object's graph ships to the
	// serving node; the activated copy is what the remote server mutates.
	e.migIssued++
	_, err := e.Cluster.Ship(home, int(s.Dest), s.Obj, cluster.MsgRequest, uint64(sid))
	return err
}

// tick is node sn's share of a lockstep iteration: it activates what was
// delivered to it, flushes its backlogs, steps its kernel one quantum and
// drains its reply port. It touches only what the node owns and leaves
// every effect on shared state in out for the merge.
func (sn *shardNode) tick(in []cluster.Msg, out *outbox) (worked bool, err error) {
	if err := sn.arrive(in, out); err != nil {
		return false, err
	}
	sn.flush()
	worked, f := sn.IM.Step(stepQuantum)
	if f != nil {
		return false, fmt.Errorf("fault: %v", f)
	}
	return worked, sn.drainReplies(out)
}

// arrive activates every graph delivered to the node: request copies go to
// the class request port, reply copies fold back into their canonical
// session object and are reclaimed.
func (sn *shardNode) arrive(in []cluster.Msg, out *outbox) error {
	for _, d := range in {
		root, created, err := sn.cl.Activate(d)
		if err != nil {
			return fmt.Errorf("materialize graph %d: %w", d.Graph, err)
		}
		out.activated = append(out.activated, uint32(len(created)))
		sid := int32(d.Seq)
		s := &sn.sessions[sid]
		switch d.Kind {
		case cluster.MsgRequest:
			sn.byObj.Put(root.Index, ^sn.serve(sid, created))
			sn.send(s.Class, root)
		case cluster.MsgReply:
			// Fold the served copy's bytes into the canonical object.
			var src, dst obj.View
			sn.IM.Table.View(root, obj.TypeGeneric, obj.RightRead, &src)
			data := src.Span(obj.RightRead, 0, sn.sessionData)
			if f := src.Fault(); f != nil {
				return fmt.Errorf("reply read: %v", f)
			}
			sn.IM.Table.View(s.Obj, obj.TypeGeneric, obj.RightWrite, &dst)
			dst.SetBytes(0, data)
			if f := dst.Fault(); f != nil {
				return fmt.Errorf("reply fold: %v", f)
			}
			if err := sn.cl.Reclaim(created); err != nil {
				return err
			}
		}
	}
	return nil
}

// serve keeps a request copy's session and activated graph in a free slot
// of copies and returns the slot.
func (sn *shardNode) serve(sid int32, graph []obj.AD) int32 {
	c := servedCopy{sid, graph}
	if k := len(sn.free); k > 0 {
		slot := sn.free[k-1]
		sn.free = sn.free[:k-1]
		sn.copies[slot] = c
		return slot
	}
	sn.copies = append(sn.copies, c)
	return int32(len(sn.copies) - 1)
}

// drainReplies observes the node's reply port: canonical session objects
// complete where they are homed; remote-job copies are encoded for their
// trip home and reclaimed.
func (sn *shardNode) drainReplies(out *outbox) error {
	for {
		msg, ok, f := sn.IM.ReceiveMessage(sn.ReplyPort)
		if f != nil {
			return fmt.Errorf("drain: %v", f)
		}
		if !ok {
			return nil
		}
		v, known := sn.byObj.Get(msg.Index)
		if !known {
			return fmt.Errorf("unknown object %d on reply port", msg.Index)
		}
		sn.Served++
		if v >= 0 {
			out.departures = append(out.departures, departure{sid: v})
			continue
		}
		c := &sn.copies[^v]
		img, objects, err := sn.cl.Encode(msg)
		if err != nil {
			return err
		}
		out.departures = append(out.departures, departure{img: img, sid: c.sid, objects: uint32(objects)})
		// The image owns the state now; the copy is done.
		if err := sn.cl.Reclaim(c.graph); err != nil {
			return err
		}
		*c = servedCopy{}
		sn.free = append(sn.free, ^v)
	}
}

// merge applies every node's outbox to the shared state in the order the
// unsplit loop did: all nodes' arrivals (flight closures, then a reply's
// completion), node by node, then all nodes' departures (completions and
// posts, whose order gives graph ids), node by node.
func (e *ShardEngine) merge() {
	for _, sn := range e.nodes {
		for i, activated := range sn.out.activated {
			m := sn.in[i]
			e.Cluster.CloseFlight(m, int(activated), nil)
			if m.Kind == cluster.MsgReply {
				e.migCompleted++
				e.complete(sn, int32(m.Seq))
			}
		}
		sn.out.activated = sn.out.activated[:0]
	}
	for ni, sn := range e.nodes {
		for _, d := range sn.out.departures {
			if d.img == nil {
				e.complete(sn, d.sid)
				continue
			}
			e.Cluster.Post(ni, homeOf(int(d.sid), len(e.nodes)), cluster.MsgReply, uint64(d.sid), d.img, int(d.objects))
		}
		sn.out.departures = sn.out.departures[:0]
	}
}

// round is one lockstep iteration past the issues: the wire's deliveries
// to every node, each node's part (a tick, or when step is off only its
// arrivals and its reply port: the final wire drain), then the merge. It
// reports whether any kernel worked.
func (e *ShardEngine) round(step bool) (anyWorked bool, err error) {
	for ni, sn := range e.nodes {
		// Wire messages shipped last step arrive before this step runs.
		if sn.in, err = e.Cluster.Deliver(ni); err != nil {
			return false, err
		}
	}
	for ni, sn := range e.nodes {
		worked := false
		if step {
			worked, err = sn.tick(sn.in, &sn.out)
		} else if err = sn.arrive(sn.in, &sn.out); err == nil {
			err = sn.drainReplies(&sn.out)
		}
		if err != nil {
			return false, fmt.Errorf("shard %q: node %d at %v: %w", e.Cfg.Name, ni, e.now, err)
		}
		anyWorked = anyWorked || worked
	}
	e.merge()
	return anyWorked, nil
}

// complete finishes session sid's request at the current lockstep instant
// on its home node.
func (e *ShardEngine) complete(home *shardNode, sid int32) {
	s := &e.sessions[sid]
	if !s.inFlight() {
		// Censored at the deadline before its reply landed: the latency
		// was already recorded at age-at-deadline; drop the straggler.
		return
	}
	lat := e.now - e.at[sid]
	e.all.Observe(lat)
	e.perClass[s.Class].Observe(lat)
	s.Completed++
	e.totCompleted++
	home.Completed++
}

// censor bounds the tail at the deadline exactly like the single-node
// engine: in-flight requests are recorded at their age-at-deadline.
func (e *ShardEngine) censor(deadline vtime.Cycles) {
	for i := range e.sessions {
		s := &e.sessions[i]
		if !s.inFlight() {
			continue
		}
		lat := deadline - e.at[i] // the deadline is past the last arrival
		e.all.Observe(lat)
		e.perClass[s.Class].Observe(lat)
		s.Censored++
		e.totCensored++
	}
	for _, sn := range e.nodes {
		for ci := range sn.Classes {
			sn.Classes[ci].pending = nil
		}
	}
}

// CheckTransfers runs the cross-node reference-accounting auditor over
// the cluster's current state.
func (e *ShardEngine) CheckTransfers() []audit.Violation {
	return audit.CheckTransfers(e.Cluster.Snapshot())
}

// Run drives the sharded scenario to completion (or the drain deadline)
// and returns its deterministic result. An engine runs once.
func (e *ShardEngine) Run() (*ShardResult, error) {
	if e.ran {
		return nil, errors.New("shard: engine already ran")
	}
	e.ran = true
	for {
		for e.due(e.now) {
			if err := e.issue(e.pop()); err != nil {
				return nil, err
			}
		}
		inFlight := e.totIssued - e.totCompleted - e.totCensored
		deadline := e.last() + e.Cfg.DrainBudget
		if _, more := e.next(); !more && inFlight == 0 {
			break
		}
		if e.now >= deadline {
			e.censor(deadline)
			break
		}
		anyWorked, err := e.round(true)
		if err != nil {
			return nil, err
		}
		if e.StepHook != nil {
			e.StepHook(e)
		}
		// Lockstep: every processor of every node lands on the next
		// grid instant.
		tick := e.now + stepQuantum
		if !anyWorked && inFlight == 0 && e.Cluster.PendingWire() == 0 {
			// Cluster-wide idle with nothing in flight: skip to the
			// next obligation (arrival, policy timer, deadline).
			t := deadline
			if at, ok := e.next(); ok {
				t = min(t, at)
			}
			for _, sn := range e.nodes {
				t = sn.wake(t)
			}
			if t > tick {
				tick = t
			}
		}
		for _, sn := range e.nodes {
			sn.advance(tick)
		}
		e.now = tick
	}
	// Final wire drain so a run that ends exactly on a completion step
	// leaves no orphaned flights.
	if _, err := e.round(false); err != nil {
		return nil, err
	}
	return e.result(), nil
}
