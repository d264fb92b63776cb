package scenario

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/inject"
	"repro/internal/obj"
	"repro/internal/pm"
	"repro/internal/port"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// Session is one simulated user: its class, its session object, and its
// request progress. The session object is preallocated at build time and
// every completed request increments its touched dwords — a byte-level
// witness of service that the confinement checker can compare across
// runs.
type Session struct {
	Class     int
	Obj       obj.AD
	Arrive    vtime.Cycles
	Issued    int
	Completed int
	Censored  int

	// issueAt queues the scheduled instants of in-flight requests in
	// attribution (FIFO) order.
	issueAt []vtime.Cycles
	// thinks are the pre-drawn think gaps before requests 1..n-1.
	thinks []vtime.Cycles
}

// ClassRt is the built runtime of one class: its server pool, request
// port and measurement state.
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

	// pending is the engine-side overflow queue: sessions whose send
	// found the request port full. Open-loop latency includes this wait.
	pending []int32
}

// event is one scheduled engine action: issue session sid's next request.
type event struct {
	at  vtime.Cycles
	seq uint64
	sid int32
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// anchorSlots is the access-slot count of the anchor blocks that chain
// every session object (and the class domains) to the system directory:
// slot 0 links to the next block. Anchoring makes the whole session
// population reachable from a pinned root, so audit.SnapshotReachable
// sees it and damage confinement can be asserted over session bytes.
const anchorSlots = 64

// Engine is a built scenario ready to run once.
type Engine struct {
	Cfg Config
	IM  *core.IMAX
	Sel *pm.Selection
	Inj *inject.Injector

	Sessions  []Session
	Classes   []ClassRt
	ReplyPort obj.AD
	// FaultPort parks servers that fault when no swapping fault service
	// is configured (under swapping, servers use IM.SegFaultPort).
	FaultPort  obj.AD
	AnchorHead obj.AD

	byObj         map[obj.Index]int32
	events        eventHeap
	seq           uint64
	all           vtime.Hist
	totIssued     uint64
	totCompleted  uint64
	totCensored   uint64
	alien         uint64
	lastScheduled vtime.Cycles
	lastCompact   vtime.Cycles
	ran           bool
}

// New boots a system for the configuration and builds the full scenario:
// server pools under the selected policy, the preallocated session
// population, the precomputed arrival schedule, and (when configured)
// the armed fault injector. Everything allocated for the scenario exists
// before Run starts — the run itself performs no engine-side allocation,
// which keeps object-table index assignment identical between an
// injected run and its fault-free reference.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	im, err := core.Boot(core.Config{
		Processors:       cfg.Processors,
		MemoryBytes:      cfg.MemoryBytes,
		Swapping:         cfg.Swapping,
		Trace:            cfg.Trace,
		Ledger:           cfg.Ledger,
		DeadlineDispatch: pm.PolicyNeedsDeadlineDispatch(cfg.Policy),
		NoExecCache:      cfg.NoExecCache,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: boot: %w", cfg.Name, err)
	}
	e := &Engine{Cfg: cfg, IM: im, byObj: make(map[obj.Index]int32, cfg.Sessions)}

	sel, err := pm.Select(cfg.Policy, im.PM, cfg.FairQuantum)
	if err != nil {
		return nil, err
	}
	e.Sel = sel

	fail := func(what string, f *obj.Fault) error {
		return fmt.Errorf("scenario %q: %s: %v", cfg.Name, what, f)
	}
	reply, f := im.Ports.Create(im.Heap, 256, port.FIFO)
	if f != nil {
		return nil, fail("reply port", f)
	}
	e.ReplyPort = reply

	faultPort := im.SegFaultPort
	if !cfg.Swapping {
		totalServers := 0
		for _, cl := range cfg.Classes {
			totalServers += cl.Servers
		}
		capacity := uint16(totalServers + 8)
		fp, f := im.Ports.Create(im.Heap, capacity, port.FIFO)
		if f != nil {
			return nil, fail("fault port", f)
		}
		e.FaultPort = fp
		faultPort = fp
	}

	// Server pools, spawned through the pm layer under the policy.
	for _, cl := range cfg.Classes {
		dom, callee, f := workload.NewServerDomain(im.System, cl.Spec)
		if f != nil {
			return nil, fail("server domain", f)
		}
		req, f := im.Ports.Create(im.Heap, cfg.PortCapacity, port.FIFO)
		if f != nil {
			return nil, fail("request port", f)
		}
		rt := ClassRt{Class: cl, ReqPort: req, Domain: dom, Callee: callee}
		for s := 0; s < cl.Servers; s++ {
			p, f := im.PM.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{
				Priority:  cl.Priority,
				TimeSlice: cl.TimeSlice,
				FaultPort: faultPort,
				AArgs:     [4]obj.AD{callee, obj.NilAD, req, reply},
			})
			if f != nil {
				return nil, fail("spawn server", f)
			}
			if f := sel.Adopt(p); f != nil {
				return nil, fail("adopt server", f)
			}
			rt.Servers = append(rt.Servers, p)
		}
		e.Classes = append(e.Classes, rt)
	}
	if f := sel.Launch(cfg.RebalanceEvery, 14); f != nil {
		return nil, fail("launch policy", f)
	}

	// Session population: class assignment, session objects, arrival
	// schedule and think gaps, each from its own seeded stream so adding
	// draws to one axis never perturbs another.
	rngClass := rand.New(rand.NewSource(cfg.Seed ^ 0x5e551017))
	rngArr := rand.New(rand.NewSource(cfg.Seed ^ 0x0a221e5d))
	rngThink := rand.New(rand.NewSource(cfg.Seed ^ 0x7d1c4ab3))
	arr := arrivalTimes(rngArr, cfg.Arrival, cfg.Sessions, cfg.MeanGap, cfg.BurstLen)
	totW := 0
	for _, cl := range cfg.Classes {
		totW += cl.Weight
	}
	var anchored []obj.AD
	e.Sessions = make([]Session, cfg.Sessions)
	for i := range e.Sessions {
		ci, w := 0, rngClass.Intn(totW)
		for w >= cfg.Classes[ci].Weight {
			w -= cfg.Classes[ci].Weight
			ci++
		}
		so, f := im.MM.Allocate(im.Heap, obj.CreateSpec{
			Type:    obj.TypeGeneric,
			DataLen: cfg.SessionData,
		})
		if f != nil {
			return nil, fail(fmt.Sprintf("session %d object", i), f)
		}
		s := Session{Class: ci, Obj: so, Arrive: arr[i]}
		if n := cfg.RequestsPerSession - 1; n > 0 {
			s.thinks = make([]vtime.Cycles, n)
			for j := range s.thinks {
				s.thinks[j] = expGap(rngThink, cfg.ThinkMean)
			}
		}
		e.Sessions[i] = s
		e.byObj[so.Index] = int32(i)
		e.Classes[ci].Sessions++
		anchored = append(anchored, so)

		e.push(arr[i], int32(i))
		if arr[i] > e.lastScheduled {
			e.lastScheduled = arr[i]
		}
		if cfg.OpenLoop {
			// Pure open loop: every request instant is fixed up
			// front, independent of completions.
			at := arr[i]
			for _, th := range e.Sessions[i].thinks {
				at += th
				e.push(at, int32(i))
				if at > e.lastScheduled {
					e.lastScheduled = at
				}
			}
		}
	}
	for _, rt := range e.Classes {
		anchored = append(anchored, rt.Domain)
		if rt.Callee.Valid() {
			anchored = append(anchored, rt.Callee)
		}
	}
	if err := e.buildAnchors(anchored); err != nil {
		return nil, err
	}

	if cfg.InjectEvents > 0 {
		chaosHeap, f := im.MM.NewHeap(1 << 20)
		if f != nil {
			return nil, fail("chaos heap", f)
		}
		var reqPorts []obj.AD
		for _, rt := range e.Classes {
			reqPorts = append(reqPorts, rt.ReqPort)
		}
		plan := inject.NewPlan(cfg.InjectSeed, cfg.InjectHorizon, cfg.InjectEvents)
		e.Inj = inject.New(plan, inject.Env{
			Swapper:    im.Swapper,
			FloodPorts: reqPorts,
			Heaps:      []obj.AD{chaosHeap},
			FillerHeap: chaosHeap,
		})
		im.SetInjector(e.Inj)
	}
	return e, nil
}

// buildAnchors chains the given objects into anchor blocks reachable from
// the pinned system directory (slot 0), so confinement snapshots see the
// whole session population.
func (e *Engine) buildAnchors(ads []obj.AD) error {
	t := e.IM.Table
	var head, cur obj.AD
	slot := uint32(anchorSlots) // force a block on the first object
	for _, ad := range ads {
		if slot >= anchorSlots {
			blk, f := e.IM.MM.Allocate(e.IM.Heap, obj.CreateSpec{
				Type:        obj.TypeGeneric,
				AccessSlots: anchorSlots,
			})
			if f != nil {
				return fmt.Errorf("scenario %q: anchor block: %v", e.Cfg.Name, f)
			}
			if cur.Valid() {
				if f := t.StoreADSystem(cur, 0, blk); f != nil {
					return fmt.Errorf("scenario %q: anchor link: %v", e.Cfg.Name, f)
				}
			} else {
				head = blk
			}
			cur, slot = blk, 1
		}
		if f := t.StoreADSystem(cur, slot, ad); f != nil {
			return fmt.Errorf("scenario %q: anchor slot: %v", e.Cfg.Name, f)
		}
		slot++
	}
	if head.Valid() {
		if f := e.IM.Publish(0, head); f != nil {
			return fmt.Errorf("scenario %q: publish anchors: %v", e.Cfg.Name, f)
		}
	}
	e.AnchorHead = head
	return nil
}

func (e *Engine) push(at vtime.Cycles, sid int32) {
	heap.Push(&e.events, event{at: at, seq: e.seq, sid: sid})
	e.seq++
}

// issue schedules session sid's next request at instant at: the latency
// clock starts now, whether or not the request port has room.
func (e *Engine) issue(sid int32, at vtime.Cycles) {
	s := &e.Sessions[sid]
	cl := &e.Classes[s.Class]
	s.Issued++
	cl.Issued++
	e.totIssued++
	s.issueAt = append(s.issueAt, at)
	if len(cl.pending) > 0 {
		cl.pending = append(cl.pending, sid)
		cl.Deferred++
		return
	}
	ok, f := e.IM.SendMessage(cl.ReqPort, s.Obj, 0)
	if f != nil || !ok {
		cl.pending = append(cl.pending, sid)
		cl.Deferred++
	}
}

// flushPending retries deferred sends in FIFO order, per class.
func (e *Engine) flushPending() {
	for ci := range e.Classes {
		cl := &e.Classes[ci]
		for len(cl.pending) > 0 {
			sid := cl.pending[0]
			ok, f := e.IM.SendMessage(cl.ReqPort, e.Sessions[sid].Obj, 0)
			if f != nil || !ok {
				break
			}
			cl.pending = cl.pending[1:]
		}
	}
}

// drainReplies observes completions: every message on the reply port is
// matched to its session and the front in-flight request's latency is
// recorded. Unknown objects (injector flood fillers relayed by a server)
// are counted and dropped.
func (e *Engine) drainReplies() *obj.Fault {
	for {
		msg, ok, f := e.IM.ReceiveMessage(e.ReplyPort)
		if f != nil {
			return f
		}
		if !ok {
			return nil
		}
		sid, known := e.byObj[msg.Index]
		if !known {
			e.alien++
			continue
		}
		s := &e.Sessions[sid]
		if len(s.issueAt) == 0 {
			e.alien++
			continue
		}
		at := s.issueAt[0]
		s.issueAt = s.issueAt[1:]
		now := e.IM.Now()
		lat := now - at
		cl := &e.Classes[s.Class]
		cl.Hist.Observe(lat)
		e.all.Observe(lat)
		s.Completed++
		cl.Completed++
		e.totCompleted++
		if !e.Cfg.OpenLoop && s.Issued < e.Cfg.RequestsPerSession {
			next := now + s.thinks[s.Issued-1]
			e.push(next, sid)
			if next > e.lastScheduled {
				e.lastScheduled = next
			}
		}
	}
}

// censor bounds the tail at the deadline: every request still in flight
// is recorded at its age-at-deadline instead of being waited for, so a
// wedged server degrades the percentiles instead of hanging the engine.
func (e *Engine) censor(deadline vtime.Cycles) {
	for i := range e.Sessions {
		s := &e.Sessions[i]
		cl := &e.Classes[s.Class]
		for _, at := range s.issueAt {
			lat := vtime.Cycles(0)
			if deadline > at {
				lat = deadline - at
			}
			cl.Hist.Observe(lat)
			e.all.Observe(lat)
			s.Censored++
			cl.Censored++
			e.totCensored++
		}
		s.issueAt = nil
	}
	for ci := range e.Classes {
		e.Classes[ci].pending = nil
	}
}

// maybeCompact runs a compaction pass when virtual time has advanced
// CompactEvery past the previous pass.
func (e *Engine) maybeCompact() {
	if e.Cfg.CompactEvery == 0 || e.IM.Swapper == nil {
		return
	}
	if now := e.IM.Now(); now >= e.lastCompact+e.Cfg.CompactEvery {
		e.lastCompact = now
		_, _, _ = e.IM.Swapper.Compact()
	}
}

// Run drives the scenario to completion (or the drain deadline) and
// returns its deterministic result. An engine runs once.
func (e *Engine) Run() (*Result, error) {
	if e.ran {
		return nil, errors.New("scenario: engine already ran")
	}
	e.ran = true
	for {
		now := e.IM.Now()
		for e.events.Len() > 0 && e.events[0].at <= now {
			ev := heap.Pop(&e.events).(event)
			e.issue(ev.sid, ev.at)
		}
		e.flushPending()
		deadline := e.lastScheduled + e.Cfg.DrainBudget
		if e.events.Len() == 0 && e.totCompleted+e.totCensored == e.totIssued {
			break
		}
		if now >= deadline {
			e.censor(deadline)
			break
		}
		worked, f := e.IM.Step(e.Cfg.StepQuantum)
		if f != nil {
			return nil, fmt.Errorf("scenario %q: system fault at %v: %v", e.Cfg.Name, e.IM.Now(), f)
		}
		if f := e.drainReplies(); f != nil {
			return nil, fmt.Errorf("scenario %q: drain: %v", e.Cfg.Name, f)
		}
		if !worked {
			// Idle: advance every clock to the next obligation, the
			// way gdp.Run advances to the next timer — here the next
			// arrival, timer, compaction pass or the deadline.
			t := deadline
			if e.events.Len() > 0 && e.events[0].at < t {
				t = e.events[0].at
			}
			if e.IM.TimersPending() > 0 {
				if nt := e.IM.NextTimer(); nt < t {
					t = nt
				}
			}
			if e.Cfg.CompactEvery > 0 && e.IM.Swapper != nil {
				if ca := e.lastCompact + e.Cfg.CompactEvery; ca < t {
					t = ca
				}
			}
			if t <= now {
				t = now + e.Cfg.StepQuantum
			}
			for _, cpu := range e.IM.CPUs {
				if n := cpu.Clock.Now(); t > n {
					cpu.Clock.AdvanceTo(t)
					cpu.IdleCycles += t - n
				}
			}
		}
		e.maybeCompact()
	}
	if f := e.drainReplies(); f != nil {
		return nil, fmt.Errorf("scenario %q: final drain: %v", e.Cfg.Name, f)
	}
	return e.result(), nil
}
