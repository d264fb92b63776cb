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
	var pv obj.View
	m.Table.View(p, obj.TypePort, obj.RightRead, &pv)
	st := &State{
		Discipline: Discipline(pv.Word(offDiscipline)),
		Capacity:   pv.Word(offCapacity),
		Count:      pv.Word(offCount),
	}
	st.Slots = make([]SlotState, st.Capacity)
	for i := range st.Slots {
		rec := offSlots + uint32(i)*slotRecSize
		if pv.Word(rec+recOccupied) != 0 {
			st.Slots[i] = SlotState{true, pv.LoadAD(slotMsg0 + uint32(i)), pv.DWord(rec + recKey), pv.DWord(rec + recSeq)}
		}
	}
	st.Senders = m.walk(&pv, slotSendHead)
	st.Receivers = m.walk(&pv, slotRecvHead)
	for _, w := range m.walk(&pv, slotFree) {
		st.Free = append(st.Free, w.Carrier)
	}
	// A nil AD's index is NilIndex: an empty queue's tail.
	st.SendTail, st.RecvTail = pv.LoadAD(slotSendTail).Index, pv.LoadAD(slotRecvTail).Index
	if f := pv.Fault(); f != nil {
		return nil, f
	}
	return st, nil
}

// walk reads the carrier chain headed at a slot of the port — a wait queue
// or the free pool — latching into pv whatever a carrier refuses.
func (m *Manager) walk(pv *obj.View, headSlot uint32) []Waiter {
	var out []Waiter
	for cur := pv.LoadAD(headSlot); cur.Valid(); {
		if len(out) >= m.Table.Len() {
			pv.Latch(cyclic(pv.AD()))
			break
		}
		var cv obj.View
		m.Table.View(cur, obj.TypeCarrier, obj.RightRead, &cv)
		out = append(out, Waiter{cur.Index, cv.LoadAD(carSlotProcess), cv.LoadAD(carSlotMessage), cv.DWord(carKey)})
		cur = cv.LoadAD(carSlotNext)
		pv.Latch(cv.Fault())
	}
	return out
}
