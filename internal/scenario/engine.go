package scenario

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/obj"
	"repro/internal/pm"
	"repro/internal/vtime"
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
	// attribution (FIFO) order. Its room for RequestsPerSession instants
	// is carved from one slab in New, and it is popped by copying down,
	// so it never leaves that room.
	issueAt []vtime.Cycles
	// thinks are the pre-drawn think gaps before requests 1..n-1.
	thinks []vtime.Cycles
}

// event is one scheduled engine action: issue session sid's next request.
type event struct {
	at  vtime.Cycles
	seq uint64
	sid int32
}

// before is the agenda's order: by instant, then by push order.
func (ev event) before(o event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventHeap is a binary min-heap of events in that order. It is typed, not
// the standard library's heap, because that interface boxes every event it
// pushes and pops: two host allocations per request.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() event {
	q := *h
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if q[c].before(q[least]) {
				least = c
			}
		}
		if least == i {
			return top
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

// agenda is an engine's schedule of request instants, ordered by instant
// and then by push order, plus the latest instant ever scheduled — the
// drain deadline runs from there. An event no earlier than the last one in
// the lane is appended to it, so lane[head:] is sorted (push order only
// grows) and the arrival schedule, drawn in order, never pays for the heap;
// only an event that comes early does. pop takes the lesser of the two
// heads, the least event outstanding: the order is the heap's own.
type agenda struct {
	lane          []event
	head          int
	events        eventHeap
	seq           uint64
	lastScheduled vtime.Cycles
}

// push schedules session sid's next request at instant at.
func (a *agenda) push(at vtime.Cycles, sid int32) {
	ev := event{at: at, seq: a.seq, sid: sid}
	a.seq++
	a.lastScheduled = max(a.lastScheduled, at)
	if n := len(a.lane); n == 0 || at >= a.lane[n-1].at {
		a.lane = append(a.lane, ev)
	} else {
		a.events.push(ev)
	}
}

// laneFirst reports whether the earliest scheduled event is the lane's head.
func (a *agenda) laneFirst() bool {
	return a.head < len(a.lane) && (len(a.events) == 0 || a.lane[a.head].before(a.events[0]))
}

// next reports the earliest scheduled instant, if there is one.
func (a *agenda) next() (vtime.Cycles, bool) {
	switch {
	case a.laneFirst():
		return a.lane[a.head].at, true
	case len(a.events) > 0:
		return a.events[0].at, true
	}
	return 0, false
}

// due reports whether a request is scheduled at or before now.
func (a *agenda) due(now vtime.Cycles) bool {
	at, ok := a.next()
	return ok && at <= now
}

// pop removes and returns the earliest request; there must be one.
func (a *agenda) pop() event {
	if !a.laneFirst() {
		return a.events.pop()
	}
	ev := a.lane[a.head]
	if a.head++; a.head == len(a.lane) {
		a.lane, a.head = a.lane[:0], 0 // drained: its room serves the next in-order run
	}
	return ev
}

// anchorSlots is the access-slot count of the anchor blocks that chain
// every session object (and the class domains) to the system directory:
// slot 0 links to the next block. Anchoring makes the whole session
// population reachable from a pinned root, so audit.SnapshotReachable
// sees it and damage confinement can be asserted over session bytes.
const anchorSlots = 64

// Engine is a built single-machine scenario ready to run once: one node
// and the event loop that observes it at IM.Now().
type Engine struct {
	Cfg Config
	node
	Inj *inject.Injector

	Sessions   []Session
	AnchorHead obj.AD

	agenda
	byObj        obj.Side[int32] // session object → session id
	all          vtime.Hist
	totIssued    uint64
	totCompleted uint64
	totCensored  uint64
	alien        uint64
	lastCompact  vtime.Cycles
	ran          bool
}

// New boots a system for the configuration and builds the full scenario:
// server pools under the selected policy, the preallocated session
// population, the precomputed arrival schedule, and (when configured)
// the armed fault injector. Everything allocated for the scenario exists
// before Run starts — the run itself performs no engine-side allocation,
// which keeps object-table index assignment identical between an
// injected run and its fault-free reference.
func New(cfg Config) (*Engine, error) {
	var err error
	if cfg.Load, err = cfg.Load.resolve(cfg.Swapping); err != nil {
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
	e := &Engine{Cfg: cfg, node: node{IM: im}, byObj: obj.NewSide[int32](im.Table)}
	if err := e.build(&cfg.Load); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", cfg.Name, err)
	}

	var anchored []obj.AD
	e.Sessions = make([]Session, cfg.Sessions)
	inFlight := make([]vtime.Cycles, cfg.Sessions*cfg.RequestsPerSession)
	err = population(&cfg.Load, func(i, class int, arrive vtime.Cycles, thinks []vtime.Cycles) error {
		so, f := im.MM.Allocate(im.Heap, obj.CreateSpec{
			Type:    obj.TypeGeneric,
			DataLen: cfg.SessionData,
		})
		if f != nil {
			return fmt.Errorf("scenario %q: session %d object: %v", cfg.Name, i, f)
		}
		room := inFlight[i*cfg.RequestsPerSession:][:0:cfg.RequestsPerSession]
		e.Sessions[i] = Session{Class: class, Obj: so, Arrive: arrive, issueAt: room, thinks: thinks}
		e.byObj.Put(so.Index, int32(i))
		e.Classes[class].Sessions++
		anchored = append(anchored, so)

		e.push(arrive, int32(i))
		if cfg.OpenLoop {
			// Pure open loop: every request instant is fixed up
			// front, independent of completions.
			at := arrive
			for _, th := range thinks {
				at += th
				e.push(at, int32(i))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
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
			return nil, fmt.Errorf("scenario %q: chaos heap: %v", cfg.Name, f)
		}
		var reqPorts []obj.AD
		for _, rt := range e.Classes {
			reqPorts = append(reqPorts, rt.ReqPort)
		}
		plan := inject.NewPlan(cfg.InjectSeed, injectHorizon, cfg.InjectEvents)
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

// issue starts session sid's next request at instant at: the latency
// clock starts now, whether or not the request port has room.
func (e *Engine) issue(sid int32, at vtime.Cycles) {
	s := &e.Sessions[sid]
	s.Issued++
	e.Classes[s.Class].Issued++
	e.totIssued++
	s.issueAt = append(s.issueAt, at)
	e.send(s.Class, s.Obj)
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
		sid, known := e.byObj.Get(msg.Index)
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
		s.issueAt = s.issueAt[:copy(s.issueAt, s.issueAt[1:])]
		now := e.IM.Now()
		lat := now - at
		cl := &e.Classes[s.Class]
		cl.Hist.Observe(lat)
		e.all.Observe(lat)
		s.Completed++
		cl.Completed++
		e.totCompleted++
		if !e.Cfg.OpenLoop && s.Issued < e.Cfg.RequestsPerSession {
			e.push(now+s.thinks[s.Issued-1], sid)
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
		s.issueAt = s.issueAt[:0]
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
		for e.due(now) {
			ev := e.pop()
			e.issue(ev.sid, ev.at)
		}
		e.flush()
		deadline := e.lastScheduled + e.Cfg.DrainBudget
		if _, more := e.next(); !more && e.totCompleted+e.totCensored == e.totIssued {
			break
		}
		if now >= deadline {
			e.censor(deadline)
			break
		}
		worked, f := e.IM.Step(stepQuantum)
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
			if at, ok := e.next(); ok {
				t = min(t, at)
			}
			t = e.wake(t)
			if e.Cfg.CompactEvery > 0 && e.IM.Swapper != nil {
				if ca := e.lastCompact + e.Cfg.CompactEvery; ca < t {
					t = ca
				}
			}
			if t <= now {
				t = now + stepQuantum
			}
			e.advance(t)
		}
		e.maybeCompact()
	}
	if f := e.drainReplies(); f != nil {
		return nil, fmt.Errorf("scenario %q: final drain: %v", e.Cfg.Name, f)
	}
	return e.result(), nil
}
