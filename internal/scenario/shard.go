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
	// MigratePermille is the per-request probability (‰) that a request
	// is served on a node other than its session's home. With one node
	// there is nowhere to migrate and the knob is ignored.
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
			// One request per session, arrivals well above one node's
			// service rate: an open-loop saturation probe.
			RequestsPerSession: 1,
			Processors:         4,
			MeanGap:            60,
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

// shardSession is one simulated user pinned to a home node. Requests are
// serialized per session: the next request's instant is drawn only when
// the previous one completes, so the canonical session object is never
// concurrently served on two nodes and the migrated copy-back can never
// lose an update.
type shardSession struct {
	Class int
	Home  int
	Obj   obj.AD // canonical session object, lives on Home

	Issued    int
	Completed int
	Censored  int

	inFlight bool
	issueAt  vtime.Cycles
	// remote is the activated graph of the request copy a non-home node is
	// serving, kept for its reclamation after the reply ships.
	remote []obj.AD

	thinks []vtime.Cycles
	// Pre-drawn per-request routing: dests[i] is the serving node of
	// request i (== Home for local requests).
	dests []int
}

// shardNode is one kernel's engine-side state: the node the
// single-machine engine also runs, plus the cluster's bookkeeping.
type shardNode struct {
	node

	// byObj maps an object on this node's reply port to its session: the
	// canonical session object where the session is homed, the root of the
	// activated request copy where it is served away from home.
	byObj obj.Side[int32]

	Completed uint64 // requests completed for sessions homed here
	Served    uint64 // requests whose service ran here (home or migrated)
}

// ShardEngine drives one sharded scenario run.
type ShardEngine struct {
	Cfg     ShardConfig
	Cluster *cluster.Cluster

	nodes    []*shardNode
	sessions []shardSession

	agenda
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
// pre-drawn routing, and the global arrival schedule.
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
	for ni, n := range cl.Nodes {
		sn := &shardNode{node: node{IM: n.IM}, byObj: obj.NewSide[int32](n.IM.Table)}
		if err := sn.build(&cfg.Load); err != nil {
			return nil, fmt.Errorf("shard %q: node %d: %w", cfg.Name, ni, err)
		}
		e.nodes = append(e.nodes, sn)
	}

	// Home is a multiplicative hash of the session id — placement is a
	// property of identity, not of the arrival order — and routing has
	// its own seeded stream.
	rngRoute := rand.New(rand.NewSource(cfg.Seed ^ 0x3a9d0c11))
	e.sessions = make([]shardSession, cfg.Sessions)
	err = population(&cfg.Load, func(i, class int, arrive vtime.Cycles, thinks []vtime.Cycles) error {
		home := int((uint64(i) * 0x9E3779B97F4A7C15 >> 33) % uint64(cfg.Nodes))
		im := e.nodes[home].IM
		so, f := im.SROs.Create(im.Heap, obj.CreateSpec{
			Type:    obj.TypeGeneric,
			DataLen: cfg.SessionData,
		})
		if f != nil {
			return fmt.Errorf("shard %q: node %d: session %d object: %v", cfg.Name, home, i, f)
		}
		dests := make([]int, cfg.RequestsPerSession)
		for r := range dests {
			dests[r] = home
			// Route draws are consumed unconditionally so the schedule
			// of every other session is invariant under the knob.
			roll := rngRoute.Intn(1000)
			pick := rngRoute.Intn(max(cfg.Nodes-1, 1))
			if cfg.Nodes > 1 && roll < cfg.MigratePermille {
				dests[r] = (home + 1 + pick) % cfg.Nodes
			}
		}
		e.sessions[i] = shardSession{Class: class, Home: home, Obj: so, thinks: thinks, dests: dests}
		e.nodes[home].byObj.Put(so.Index, int32(i))
		e.push(arrive, int32(i))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// issue starts session sid's next request at its scheduled instant: the
// latency clock runs from at no matter how the request routes.
func (e *ShardEngine) issue(sid int32, at vtime.Cycles) error {
	s := &e.sessions[sid]
	dest := s.dests[s.Issued]
	s.Issued++
	s.inFlight = true
	s.issueAt = at
	e.totIssued++
	if dest == s.Home {
		e.nodes[s.Home].send(s.Class, s.Obj)
		return nil
	}
	// Migrated request: the canonical object's graph ships to the
	// serving node; the activated copy is what the remote server mutates.
	e.migIssued++
	_, err := e.Cluster.Ship(s.Home, dest, s.Obj, cluster.MsgRequest, uint64(sid))
	return err
}

// deliver imports and materializes every graph addressed to node ni:
// request copies go to the class request port, reply copies fold back
// into their canonical session object and complete the request.
func (e *ShardEngine) deliver(ni int) error {
	ds, err := e.Cluster.Deliver(ni)
	if err != nil {
		return err
	}
	sn := e.nodes[ni]
	for _, d := range ds {
		root, created, err := e.Cluster.Materialize(d)
		if err != nil {
			return fmt.Errorf("shard %q: node %d: materialize graph %d: %w", e.Cfg.Name, ni, d.Graph, err)
		}
		sid := int32(d.Seq)
		s := &e.sessions[sid]
		switch d.Kind {
		case cluster.MsgRequest:
			sn.byObj.Put(root.Index, sid)
			s.remote = created
			sn.send(s.Class, root)
		case cluster.MsgReply:
			// Fold the served copy's bytes into the canonical object.
			im := sn.IM
			data, f := im.Table.ReadBytes(root, 0, e.Cfg.SessionData)
			if f != nil {
				return fmt.Errorf("shard %q: reply read: %v", e.Cfg.Name, f)
			}
			if f := im.Table.WriteBytes(s.Obj, 0, data); f != nil {
				return fmt.Errorf("shard %q: reply fold: %v", e.Cfg.Name, f)
			}
			if err := e.Cluster.ReclaimGraph(ni, created); err != nil {
				return err
			}
			e.migCompleted++
			e.complete(sid)
		}
	}
	return nil
}

// complete finishes session sid's in-flight request at the current
// lockstep instant and schedules the next request, if any.
func (e *ShardEngine) complete(sid int32) {
	s := &e.sessions[sid]
	if !s.inFlight {
		// Censored at the deadline before its reply landed: the latency
		// was already recorded at age-at-deadline; drop the straggler.
		return
	}
	lat := e.now - s.issueAt
	e.all.Observe(lat)
	e.perClass[s.Class].Observe(lat)
	s.inFlight = false
	s.Completed++
	e.totCompleted++
	e.nodes[s.Home].Completed++
	if s.Issued < e.Cfg.RequestsPerSession {
		e.push(e.now+s.thinks[s.Issued-1], sid)
	}
}

// drainReplies observes node ni's reply port: canonical session objects
// complete locally; remote-job copies passivate and ship home.
func (e *ShardEngine) drainReplies(ni int) error {
	sn := e.nodes[ni]
	for {
		msg, ok, f := sn.IM.ReceiveMessage(sn.ReplyPort)
		if f != nil {
			return fmt.Errorf("shard %q: node %d drain: %v", e.Cfg.Name, ni, f)
		}
		if !ok {
			return nil
		}
		sid, known := sn.byObj.Get(msg.Index)
		if !known {
			return fmt.Errorf("shard %q: node %d: unknown object %d on reply port", e.Cfg.Name, ni, msg.Index)
		}
		sn.Served++
		s := &e.sessions[sid]
		if s.Home == ni {
			e.complete(sid)
			continue
		}
		if _, err := e.Cluster.Ship(ni, s.Home, msg, cluster.MsgReply, uint64(sid)); err != nil {
			return err
		}
		// The shipped image owns the state now; the copy is done.
		if err := e.Cluster.ReclaimGraph(ni, s.remote); err != nil {
			return err
		}
		s.remote = nil
	}
}

// censor bounds the tail at the deadline exactly like the single-node
// engine: in-flight requests are recorded at their age-at-deadline.
func (e *ShardEngine) censor(deadline vtime.Cycles) {
	for i := range e.sessions {
		s := &e.sessions[i]
		if !s.inFlight {
			continue
		}
		lat := vtime.Cycles(0)
		if deadline > s.issueAt {
			lat = deadline - s.issueAt
		}
		e.all.Observe(lat)
		e.perClass[s.Class].Observe(lat)
		s.inFlight = false
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
			ev := e.pop()
			if err := e.issue(ev.sid, ev.at); err != nil {
				return nil, err
			}
		}
		inFlight := e.totIssued - e.totCompleted - e.totCensored
		deadline := e.lastScheduled + e.Cfg.DrainBudget
		if _, more := e.next(); !more && inFlight == 0 {
			break
		}
		if e.now >= deadline {
			e.censor(deadline)
			break
		}
		// Wire messages shipped last step arrive before this step runs.
		for ni := range e.nodes {
			if err := e.deliver(ni); err != nil {
				return nil, err
			}
			e.nodes[ni].flush()
		}
		anyWorked := false
		for ni, sn := range e.nodes {
			worked, f := sn.IM.Step(stepQuantum)
			if f != nil {
				return nil, fmt.Errorf("shard %q: node %d fault at %v: %v", e.Cfg.Name, ni, e.now, f)
			}
			anyWorked = anyWorked || worked
			if err := e.drainReplies(ni); err != nil {
				return nil, err
			}
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
	for ni := range e.nodes {
		if err := e.deliver(ni); err != nil {
			return nil, err
		}
		if err := e.drainReplies(ni); err != nil {
			return nil, err
		}
	}
	return e.result(), nil
}
