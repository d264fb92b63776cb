package audit

// ledgerconfine.go re-establishes the damage-confinement verdict (§7.1)
// from ledger-replayed event streams alone — no live object table, no
// byte images. Where CheckConfinement compares final object bytes against
// the reference run's table, this checker compares *histories*: from each
// run's verified event stream it reconstructs every witness's creation
// identity, destruction, and the exact ordered sequence of access-slot
// stores it received. Both checkers judge the same witness list, so a
// diverging store on a witness is exactly a confinement violation,
// observable years later from archived ledger bytes.
//
// The comparison deliberately uses only the scheduling-independent event
// kinds (EvObjCreate, EvObjDestroy, EvADStore); mark/dispatch/swap events
// describe how a run was computed, and legitimately diverge.

import (
	"fmt"

	"repro/internal/obj"
	"repro/internal/trace"
)

// adStore is one access-slot store an object received: which slot, which
// object was stored (0 = cleared).
type adStore struct {
	Slot uint64
	Src  obj.Index
}

// history is one object's life in a run, reconstructed purely from its
// event stream: the last creation event (Kind is EvNone if there was
// none) and how many creations the index has seen, the stream's analogue
// of the generation; whether a destruction followed; the ordered stores
// since.
type history struct {
	created     trace.Event
	incarnation int
	destroyed   bool
	stores      []adStore
}

// histories folds an event stream into the history of each witness. An
// index recreated after destruction starts a fresh history in its next
// incarnation.
func histories(events []trace.Event, witnesses []obj.Index) map[obj.Index]*history {
	out := make(map[obj.Index]*history, len(witnesses))
	for _, idx := range witnesses {
		out[idx] = &history{}
	}
	for _, ev := range events {
		h := out[obj.Index(ev.Obj)]
		if h == nil {
			continue
		}
		switch ev.Kind {
		case trace.EvObjCreate:
			*h = history{created: ev, incarnation: h.incarnation + 1}
		case trace.EvObjDestroy:
			h.destroyed = true
		case trace.EvADStore:
			h.stores = append(h.stores, adStore{Slot: ev.Aux, Src: obj.Index(ev.Arg)})
		}
	}
	return out
}

// CheckConfinementFromLedger replays the §7.1 confinement check from two
// verified event streams: a fault-free reference run and an injected run
// of the same seed. It judges exactly the witnesses CheckConfinement
// judges: each must exist in the injected stream, keep its creation
// identity, survive, and show the reference's store history.
func CheckConfinementFromLedger(refEvents, injEvents []trace.Event, witnesses []obj.Index) []Violation {
	ref, inj := histories(refEvents, witnesses), histories(injEvents, witnesses)
	var out []Violation
	bad := func(idx obj.Index, format string, args ...any) {
		out = append(out, Violation{Subsystem: "ledger-confine", Obj: idx, Msg: fmt.Sprintf(format, args...)})
	}
	for _, idx := range witnesses {
		r, h := ref[idx], inj[idx]
		rc, ic := r.created, h.created
		switch {
		case ic.Kind != trace.EvObjCreate:
			bad(idx, "%s object never created in the injected run", obj.Type(rc.Arg))
		case ic.Arg != rc.Arg || ic.Aux != rc.Aux || h.incarnation != r.incarnation:
			bad(idx, "creation identity changed: type %s level %d incarnation %d in reference, type %s level %d incarnation %d injected",
				obj.Type(rc.Arg), rc.Aux, r.incarnation, obj.Type(ic.Arg), ic.Aux, h.incarnation)
		case h.destroyed:
			bad(idx, "%s object destroyed", obj.Type(rc.Arg))
		default:
			rs, is := r.stores, h.stores
			i := 0
			for i < len(rs) && i < len(is) && rs[i] == is[i] {
				i++
			}
			switch {
			case i < len(rs) && i < len(is):
				bad(idx, "access history diverges at store %d: slot %d←%d in reference, slot %d←%d injected",
					i, rs[i].Slot, rs[i].Src, is[i].Slot, is[i].Src)
			case len(rs) != len(is):
				bad(idx, "access history length %d in reference, %d injected", len(rs), len(is))
			}
		}
	}
	return out
}
