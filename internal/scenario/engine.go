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

// Session is one simulated user: its class, its session object and the
// progress of its one request, which is issued at the session's instant in
// the engine's schedule. The session object is preallocated at build time
// and every completed request increments its touched dwords — a byte-level
// witness of service that the confinement checker can compare across runs.
type Session struct {
	Class     uint32
	Obj       obj.AD
	Issued    uint32
	Completed uint32
	Censored  uint32
}

// inFlight reports whether the session's request was issued and has
// neither completed nor been censored.
func (s *Session) inFlight() bool { return s.Issued > s.Completed+s.Censored }

// anchorSlots is the access-slot count of the anchor blocks that chain
// every session object (and the class domains) to the system directory:
// slot 0 links to the next block. Anchoring makes the whole session
// population reachable from a pinned root, so the collector never reclaims
// a session object and damage confinement can be asserted over its bytes.
const anchorSlots = 64

// Engine is a built single-machine scenario ready to run once: one node
// and the event loop that observes it at IM.Now().
type Engine struct {
	Cfg Config
	node
	Inj *inject.Injector

	Sessions   []Session
	AnchorHead obj.AD

	schedule
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

	// The population, its anchors and the chaos heap are created straight
	// through, like the server side: one latch, one check at the end. The
	// table is sized first for them and for what the servers create when
	// they start, so that neither set-up nor the run grows it.
	var l obj.Latch
	nAnchored := cfg.Sessions
	for _, rt := range e.Classes {
		nAnchored++
		if rt.Callee.Valid() {
			nAnchored++
		}
	}
	anchored := make([]obj.AD, 0, nAnchored)
	im.Table.Reserve(cfg.Sessions + anchorBlocks(nAnchored) + e.runRoom())
	e.byObj.Reserve(cfg.Sessions)
	e.Sessions = make([]Session, cfg.Sessions)
	e.schedule = population(&cfg.Load, func(i, class int) {
		so := l.AD(im.MM.Allocate(im.Heap, obj.CreateSpec{
			Type:    obj.TypeGeneric,
			DataLen: cfg.SessionData,
		}))
		e.Sessions[i] = Session{Class: uint32(class), Obj: so}
		e.byObj.Put(so.Index, int32(i))
		e.Classes[class].Sessions++
		anchored = append(anchored, so)
	})
	for _, rt := range e.Classes {
		anchored = append(anchored, rt.Domain)
		if rt.Callee.Valid() {
			anchored = append(anchored, rt.Callee)
		}
	}
	l.Keep(e.buildAnchors(anchored))

	if cfg.InjectEvents > 0 {
		chaosHeap := l.AD(im.MM.NewHeap(1 << 20))
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
	if f := l.Fault(); f != nil {
		return nil, fmt.Errorf("scenario %q: population: %w", cfg.Name, f)
	}
	return e, nil
}

// anchorBlocks is how many anchor blocks buildAnchors chains n objects into.
func anchorBlocks(n int) int { return (n + anchorSlots - 2) / (anchorSlots - 1) }

// buildAnchors chains the given objects into anchor blocks reachable from
// the pinned system directory (slot 0), so confinement snapshots see the
// whole session population.
func (e *Engine) buildAnchors(ads []obj.AD) *obj.Fault {
	t := e.IM.Table
	var l obj.Latch
	var head, cur obj.AD
	slot := uint32(anchorSlots) // force a block on the first object
	for _, ad := range ads {
		if slot >= anchorSlots {
			blk := l.AD(e.IM.MM.Allocate(e.IM.Heap, obj.CreateSpec{
				Type:        obj.TypeGeneric,
				AccessSlots: anchorSlots,
			}))
			if cur.Valid() {
				l.Keep(t.StoreADSystem(cur, 0, blk))
			} else {
				head = blk
			}
			cur, slot = blk, 1
		}
		l.Keep(t.StoreADSystem(cur, slot, ad))
		slot++
	}
	if head.Valid() {
		l.Keep(e.IM.Publish(0, head))
	}
	e.AnchorHead = head
	return l.Fault()
}

// issue sends session sid's request at its arrival instant: the latency
// clock runs from that instant, whether or not the request port has room.
func (e *Engine) issue(sid int) {
	s := &e.Sessions[sid]
	s.Issued++
	e.Classes[s.Class].Issued++
	e.totIssued++
	e.send(s.Class, s.Obj)
}

// drainReplies observes completions: every message on the reply port is
// matched to its session and the latency of its request is recorded.
// Anything else (injector flood fillers relayed by a server, a session
// object with no request in flight) is counted and dropped.
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
		if !known || !e.Sessions[sid].inFlight() {
			e.alien++
			continue
		}
		s := &e.Sessions[sid]
		lat := e.IM.Now() - e.at[sid]
		cl := &e.Classes[s.Class]
		cl.Hist.Observe(lat)
		e.all.Observe(lat)
		s.Completed++
		cl.Completed++
		e.totCompleted++
	}
}

// censor bounds the tail at the deadline: every request still in flight
// is recorded at its age-at-deadline instead of being waited for, so a
// wedged server degrades the percentiles instead of hanging the engine.
func (e *Engine) censor(deadline vtime.Cycles) {
	for i := range e.Sessions {
		s := &e.Sessions[i]
		if !s.inFlight() {
			continue
		}
		lat := deadline - e.at[i] // the deadline is past the last arrival
		cl := &e.Classes[s.Class]
		cl.Hist.Observe(lat)
		e.all.Observe(lat)
		s.Censored++
		cl.Censored++
		e.totCensored++
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
			e.issue(e.pop())
		}
		e.flush()
		deadline := e.last() + e.Cfg.DrainBudget
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
