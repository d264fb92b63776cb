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
// be walked over a port whose sender queue just proved corrupt.
func (m *Manager) CancelWaiter(p obj.AD, proc obj.AD) (found bool, msg obj.AD, f *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypePort); f != nil {
		return false, obj.NilAD, f
	}
	var pv obj.View
	if f := m.Table.View(p, obj.RightRead, &pv); f != nil {
		return false, obj.NilAD, f
	}
	found, msg, f = m.unlink(&pv, slotSendHead, slotSendTail, proc)
	if f != nil {
		return false, obj.NilAD, f
	}
	if !found {
		found, msg, f = m.unlink(&pv, slotRecvHead, slotRecvTail, proc)
		if f != nil {
			return false, obj.NilAD, f
		}
	}
	if found {
		if l := m.Table.Tracer(); l != nil {
			l.Emit(trace.EvCancel, uint32(p.Index), uint32(proc.Index), 0)
		}
	}
	return found, msg, nil
}

// unlink removes the carrier holding proc from one wait queue. The walk is
// bounded by the table size, like Inspect's: a queue damaged into a cycle
// faults instead of hanging the watchdog timer that cancels through here.
func (m *Manager) unlink(pv *obj.View, headSlot, tailSlot uint32, proc obj.AD) (bool, obj.AD, *obj.Fault) {
	var prev obj.AD
	cur, f := pv.LoadAD(headSlot)
	if f != nil {
		return false, obj.NilAD, f
	}
	for n, limit := 0, m.Table.Len(); cur.Valid(); n++ {
		if n >= limit {
			return false, obj.NilAD, cyclic(pv.AD())
		}
		var cv obj.View
		if f := m.Table.View(cur, obj.RightRead, &cv); f != nil {
			return false, obj.NilAD, f
		}
		held, f := cv.LoadAD(carSlotProcess)
		if f != nil {
			return false, obj.NilAD, f
		}
		next, f := cv.LoadAD(carSlotNext)
		if f != nil {
			return false, obj.NilAD, f
		}
		if held.Index == proc.Index {
			msg, f := cv.LoadAD(carSlotMessage)
			if f != nil {
				return false, obj.NilAD, f
			}
			// Splice the carrier out.
			if prev.Valid() {
				if f := m.Table.StoreADSystem(prev, carSlotNext, next); f != nil {
					return false, obj.NilAD, f
				}
			} else {
				if f := pv.StoreADSystem(headSlot, next); f != nil {
					return false, obj.NilAD, f
				}
			}
			if !next.Valid() {
				if f := pv.StoreADSystem(tailSlot, prev); f != nil {
					return false, obj.NilAD, f
				}
			}
			if f := pool(pv, &cv); f != nil {
				return false, obj.NilAD, f
			}
			return true, msg, nil
		}
		prev, cur = cur, next
	}
	return false, obj.NilAD, nil
}
