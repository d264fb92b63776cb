package port

import "repro/internal/obj"

// Structural inspection for the invariant auditor (internal/audit) and the
// inspect tooling. These read the port's slot records and wait queues
// below the capability discipline, the way the collector reads the object
// graph: they observe, never mutate.

// Carrier access-slot layout, exported for the auditor's free-pool scrub
// check (the wait queues are audited through Waiter instead).
const (
	CarSlotProcess = carSlotProcess
	CarSlotMessage = carSlotMessage
)

// Waiter describes one carrier on a port wait queue.
type Waiter struct {
	Carrier obj.Index
	Process obj.AD
	Msg     obj.AD // carried message (senders); NilAD for receivers
	Key     uint32
}

// SlotState describes one message slot.
type SlotState struct {
	Occupied bool
	Msg      obj.AD
	Key      uint32
	Seq      uint32
}

// State is a port's complete queueing structure at one instant.
type State struct {
	Discipline Discipline
	Capacity   uint16
	Count      uint16 // the stored count field, not a recount
	Slots      []SlotState
	Senders    []Waiter
	Receivers  []Waiter
	// Free lists the carriers parked on the port's free pool: scrubbed,
	// holding neither process nor message, awaiting reuse by park.
	Free []obj.Index
	// SendTail/RecvTail are the tail-slot contents (NilIndex for an
	// empty queue); the auditor checks them against the walked lists.
	SendTail obj.Index
	RecvTail obj.Index
}

// OccupiedSlots counts the slots holding a message.
func (st *State) OccupiedSlots() int {
	n := 0
	for _, s := range st.Slots {
		if s.Occupied {
			n++
		}
	}
	return n
}

// Inspect reads the port's full queueing structure. Wait-queue walks are
// bounded by the table size, so a corrupted (cyclic) queue faults instead
// of hanging.
func (m *Manager) Inspect(p obj.AD) (*State, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypePort); f != nil {
		return nil, f
	}
	var pv obj.View
	if f := m.Table.View(p, obj.RightRead, &pv); f != nil {
		return nil, f
	}
	st := &State{}
	disc, f := pv.Word(offDiscipline)
	if f != nil {
		return nil, f
	}
	st.Discipline = Discipline(disc)
	if st.Capacity, st.Count, f = counts(&pv); f != nil {
		return nil, f
	}
	st.Slots = make([]SlotState, st.Capacity)
	for i := uint32(0); i < uint32(st.Capacity); i++ {
		rec := offSlots + i*slotRecSize
		occ, f := pv.Word(rec + recOccupied)
		if f != nil {
			return nil, f
		}
		if occ == 0 {
			continue
		}
		s := &st.Slots[i]
		s.Occupied = true
		if s.Msg, f = pv.LoadAD(slotMsg0 + i); f != nil {
			return nil, f
		}
		if s.Key, f = pv.DWord(rec + recKey); f != nil {
			return nil, f
		}
		if s.Seq, f = pv.DWord(rec + recSeq); f != nil {
			return nil, f
		}
	}
	if st.Senders, f = m.walkWaiters(p, slotSendHead); f != nil {
		return nil, f
	}
	if st.Receivers, f = m.walkWaiters(p, slotRecvHead); f != nil {
		return nil, f
	}
	if st.Free, f = m.walkFree(p); f != nil {
		return nil, f
	}
	if tail, f := m.Table.LoadAD(p, slotSendTail); f != nil {
		return nil, f
	} else {
		st.SendTail = tailIndex(tail)
	}
	if tail, f := m.Table.LoadAD(p, slotRecvTail); f != nil {
		return nil, f
	} else {
		st.RecvTail = tailIndex(tail)
	}
	return st, nil
}

func tailIndex(ad obj.AD) obj.Index {
	if !ad.Valid() {
		return obj.NilIndex
	}
	return ad.Index
}

// walkFree reads the free-pool chain, cycle-bounded like the wait queues.
func (m *Manager) walkFree(p obj.AD) ([]obj.Index, *obj.Fault) {
	var out []obj.Index
	cur, f := m.Table.LoadAD(p, slotFree)
	if f != nil {
		return nil, f
	}
	limit := m.Table.Len()
	for cur.Valid() {
		if len(out) >= limit {
			return nil, cyclic(p)
		}
		out = append(out, cur.Index)
		if cur, f = m.Table.LoadAD(cur, carSlotNext); f != nil {
			return nil, f
		}
	}
	return out, nil
}

func (m *Manager) walkWaiters(p obj.AD, headSlot uint32) ([]Waiter, *obj.Fault) {
	var out []Waiter
	cur, f := m.Table.LoadAD(p, headSlot)
	if f != nil {
		return nil, f
	}
	limit := m.Table.Len()
	for cur.Valid() {
		if len(out) >= limit {
			return nil, cyclic(p)
		}
		w := Waiter{Carrier: cur.Index}
		if w.Process, f = m.Table.LoadAD(cur, carSlotProcess); f != nil {
			return nil, f
		}
		if w.Msg, f = m.Table.LoadAD(cur, carSlotMessage); f != nil {
			return nil, f
		}
		if w.Key, f = m.Table.ReadDWord(cur, carKey); f != nil {
			return nil, f
		}
		out = append(out, w)
		if cur, f = m.Table.LoadAD(cur, carSlotNext); f != nil {
			return nil, f
		}
	}
	return out, nil
}
