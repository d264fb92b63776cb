package port

import (
	"repro/internal/obj"
	"repro/internal/trace"
)

// Waiter cancellation: the piece of the port machinery that timeout
// service is built on. A process parked at a port (as sender or receiver)
// can be unlinked before its operation completes — the interval timer
// fires, the process manager wants to destroy the process, or a level-2
// timeout fault must be raised (§7.3). The carrier is removed and returned
// to the port's free pool; a cancelled sender's message is returned so the
// caller can decide its fate.

// CancelWaiter removes proc from the port's wait queues. It reports
// whether the process was found, and, for a cancelled sender, the message
// its carrier held. The sender queue is searched first; a fault there
// aborts the whole cancellation immediately — the receiver queue must not
// be walked over a port whose sender queue just proved corrupt, and a view
// that has latched a fault loads a nil head.
func (m *Manager) CancelWaiter(p obj.AD, proc obj.AD) (found bool, msg obj.AD, f *obj.Fault) {
	var pv obj.View
	m.Table.View(p, obj.TypePort, obj.RightRead, &pv)
	if found, msg = m.unlink(&pv, slotSendHead, slotSendTail, proc); !found {
		found, msg = m.unlink(&pv, slotRecvHead, slotRecvTail, proc)
	}
	if found {
		pv.Emit(trace.EvCancel, uint32(proc.Index), 0)
	}
	if f := pv.Fault(); f != nil {
		return false, obj.NilAD, f
	}
	return found, msg, nil
}

// unlink removes the carrier holding proc from one wait queue. The walk is
// bounded by the table size, like Inspect's: a queue damaged into a cycle
// faults instead of hanging the watchdog timer that cancels through here.
func (m *Manager) unlink(pv *obj.View, headSlot, tailSlot uint32, proc obj.AD) (bool, obj.AD) {
	var prev obj.AD
	cur := pv.LoadAD(headSlot)
	for n := 0; cur.Valid(); n++ {
		if n >= m.Table.Len() {
			pv.Latch(cyclic(pv.AD()))
			break
		}
		var cv obj.View
		m.Table.View(cur, obj.TypeCarrier, obj.RightRead, &cv)
		held, msg, next := cv.LoadAD(carSlotProcess), cv.LoadAD(carSlotMessage), cv.LoadAD(carSlotNext)
		if pv.Latch(cv.Fault()); pv.Fault() != nil {
			break
		}
		if held.Index != proc.Index {
			prev, cur = cur, next
			continue
		}
		// Splice the carrier out.
		if prev.Valid() {
			pv.Latch(m.Table.StoreADSystem(prev, carSlotNext, next))
		} else {
			pv.StoreADSystem(headSlot, next)
		}
		if !next.Valid() {
			pv.StoreADSystem(tailSlot, prev)
		}
		pool(pv, &cv)
		return pv.Fault() == nil, msg
	}
	return false, obj.NilAD
}
