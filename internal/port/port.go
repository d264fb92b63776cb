// Package port implements the 432's communication port objects (§4 of the
// paper and Figure 1): "a queueing structure for interprocess
// communications" with send and receive as single (microcoded)
// instructions that pass any access descriptor as a message.
//
// A port holds a bounded queue of message ADs plus two wait queues: blocked
// senders (when the message queue is full) and blocked receivers (when it
// is empty). Blocked processes are linked to the port through carrier
// objects — real 432 machinery — so the whole structure is visible to the
// garbage collector: a blocked process is reachable from the port it waits
// on, and a queued message is reachable from its port, exactly the lifetime
// story told at the end of §5. Carriers removed from a wait queue are
// scrubbed and parked on a per-port free pool rather than destroyed, so a
// port's steady-state blocking traffic allocates nothing (see park).
//
// Three queueing disciplines are provided (Figure 1 shows the discipline
// parameter of Create_port): FIFO, priority (highest key first) and
// deadline (lowest key first). Ties break in arrival order in all
// disciplines.
package port

import (
	"repro/internal/obj"
	"repro/internal/sro"
	"repro/internal/trace"
)

// Type rights on port capabilities (interpreted per §2's type-rights
// scheme).
const (
	// RightSend permits sending to the port.
	RightSend = obj.RightT1
	// RightReceive permits receiving from the port.
	RightReceive = obj.RightT2
)

// Discipline selects the queueing order of messages at a port.
type Discipline uint16

const (
	// FIFO delivers messages in arrival order (the Figure 1 default).
	FIFO Discipline = iota
	// Priority delivers the message with the highest key first.
	Priority
	// Deadline delivers the message with the lowest key first.
	Deadline
)

func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "FIFO"
	case Priority:
		return "priority"
	case Deadline:
		return "deadline"
	}
	return "discipline(?)"
}

// MaxMessages bounds a port's message queue, standing in for the paper's
// max_msg_cnt.
const MaxMessages = 4096

// Port data-part layout.
const (
	offDiscipline = 0  // word
	offCapacity   = 2  // word
	offCount      = 4  // word: messages queued
	offSeq        = 8  // dword: arrival sequence counter
	offSlots      = 12 // per-slot records follow
	slotRecSize   = 12 // occupied word, pad, key dword, seq dword

	recOccupied = 0
	recKey      = 4
	recSeq      = 8
)

// Port access-part slots.
const (
	slotSendHead = 0 // carrier list of blocked senders
	slotSendTail = 1
	slotRecvHead = 2 // carrier list of blocked receivers
	slotRecvTail = 3
	slotFree     = 4 // carrier free pool (reuse instead of create/destroy)
	slotMsg0     = 5 // message slots follow
)

// Carrier layout. A carrier is the surrogate that queues a blocked process
// at a port; senders' carriers also hold the message awaiting a slot.
const (
	carKey  = 0 // dword: message key (senders)
	carData = 8

	carSlotProcess = 0
	carSlotMessage = 1
	carSlotNext    = 2
	carSlots       = 3
)

// Manager provides the port instructions over an object table. Carriers
// are allocated from the same SRO as the port, so a port's whole queueing
// structure shares its lifetime.
type Manager struct {
	Table *obj.Table
	SRO   *sro.Manager
}

// NewManager returns a port manager.
func NewManager(t *obj.Table, s *sro.Manager) *Manager {
	return &Manager{Table: t, SRO: s}
}

// Create makes a new port with the given message capacity and discipline,
// allocated from heap. This is the software-implemented third of Figure 1
// ("Create is software implemented" while Send and Receive are single
// instructions).
func (m *Manager) Create(heap obj.AD, capacity uint16, d Discipline) (obj.AD, *obj.Fault) {
	if capacity == 0 || capacity > MaxMessages {
		return obj.NilAD, obj.Faultf(obj.FaultBounds, obj.NilAD,
			"message_count %d outside 1..%d", capacity, MaxMessages)
	}
	if d > Deadline {
		return obj.NilAD, obj.Faultf(obj.FaultType, obj.NilAD, "unknown discipline %d", d)
	}
	p, f := m.SRO.Create(heap, obj.CreateSpec{
		Type:        obj.TypePort,
		DataLen:     offSlots + uint32(capacity)*slotRecSize,
		AccessSlots: slotMsg0 + uint32(capacity),
	})
	if f != nil {
		return obj.NilAD, f
	}
	if f := m.Table.WriteWord(p, offDiscipline, uint16(d)); f != nil {
		return obj.NilAD, f
	}
	if f := m.Table.WriteWord(p, offCapacity, capacity); f != nil {
		return obj.NilAD, f
	}
	return p, nil
}

// Wake describes a process unblocked by a port operation: the dispatching
// machinery (internal/gdp) must return it to the dispatch mix. For a woken
// receiver, Msg carries the message it was handed.
type Wake struct {
	Process obj.AD
	Msg     obj.AD
}

// Send queues msg at the port. key orders the message under the priority
// and deadline disciplines and is ignored under FIFO.
//
// Outcomes, mirroring Figure 1's comment ("If the message queue of the
// port is full then the calling process will block until a message slot
// becomes available"):
//
//   - room in the queue: the message is deposited; if a receiver was
//     blocked, it is handed the best message and returned in wake;
//   - queue full and proc is valid: proc is parked on the sender queue
//     (blocked=true); the caller must stop running it;
//   - queue full and proc is nil: the conditional send — fails with
//     blocked=true and no side effects.
func (m *Manager) Send(p obj.AD, msg obj.AD, key uint32, proc obj.AD) (blocked bool, wake *Wake, f *obj.Fault) {
	d, f := m.Table.RequireType(p, obj.TypePort)
	if f != nil {
		return false, nil, f
	}
	if !p.Rights.Has(RightSend) {
		return false, nil, obj.Faultf(obj.FaultRights, p, "need send right")
	}
	if !msg.Valid() {
		return false, nil, obj.Faultf(obj.FaultInvalidAD, msg, "nil message")
	}
	// The lifetime rule of §5: a message must be no shorter-lived than
	// the port carrying it, or a receiver could be handed a dangling
	// reference after the sender's heap unwinds.
	md, f := m.Table.Resolve(msg)
	if f != nil {
		return false, nil, f
	}
	if md.Level > d.Level {
		return false, nil, obj.Faultf(obj.FaultLevel, msg,
			"level-%d message through level-%d port", md.Level, d.Level)
	}

	capacity, count, f := m.counts(p)
	if f != nil {
		return false, nil, f
	}
	if count >= capacity {
		if !proc.Valid() {
			return true, nil, nil // conditional send would block
		}
		if f := m.park(p, slotSendHead, slotSendTail, proc, msg, key); f != nil {
			return false, nil, f
		}
		return true, nil, nil
	}
	if f := m.deposit(p, capacity, msg, key); f != nil {
		return false, nil, f
	}
	if l := m.Table.Tracer(); l != nil {
		l.Emit(trace.EvSend, uint32(p.Index), uint32(msg.Index), uint64(key))
	}
	// A blocked receiver (possible only when the queue was empty) takes
	// the best message immediately.
	recv, f := m.unpark(p, slotRecvHead, slotRecvTail)
	if f != nil {
		return false, nil, f
	}
	if recv != nil {
		got, f := m.takeBest(p)
		if f != nil {
			return false, nil, f
		}
		return false, &Wake{Process: recv.Process, Msg: got}, nil
	}
	return false, nil, nil
}

// Receive takes a message from the port.
//
// Outcomes, mirroring Figure 1 ("If no message is available the process
// will block until a message becomes available"):
//
//   - a message is available: it is returned; if a sender was blocked,
//     its message is deposited into the freed slot and the sender is
//     returned in wake;
//   - empty and proc valid: proc parks on the receiver queue
//     (blocked=true);
//   - empty and proc nil: conditional receive — blocked=true, no effect.
func (m *Manager) Receive(p obj.AD, proc obj.AD) (msg obj.AD, blocked bool, wake *Wake, f *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypePort); f != nil {
		return obj.NilAD, false, nil, f
	}
	if !p.Rights.Has(RightReceive) {
		return obj.NilAD, false, nil, obj.Faultf(obj.FaultRights, p, "need receive right")
	}
	capacity, count, f := m.counts(p)
	if f != nil {
		return obj.NilAD, false, nil, f
	}
	if count == 0 {
		if !proc.Valid() {
			return obj.NilAD, true, nil, nil
		}
		if f := m.park(p, slotRecvHead, slotRecvTail, proc, obj.NilAD, 0); f != nil {
			return obj.NilAD, false, nil, f
		}
		return obj.NilAD, true, nil, nil
	}
	msg, f = m.takeBest(p)
	if f != nil {
		return obj.NilAD, false, nil, f
	}
	if l := m.Table.Tracer(); l != nil {
		l.Emit(trace.EvRecv, uint32(p.Index), uint32(msg.Index), 0)
	}
	// A blocked sender's message moves into the freed slot.
	send, f := m.unpark(p, slotSendHead, slotSendTail)
	if f != nil {
		return obj.NilAD, false, nil, f
	}
	if send != nil {
		if f := m.deposit(p, capacity, send.Msg, send.key); f != nil {
			return obj.NilAD, false, nil, f
		}
		if l := m.Table.Tracer(); l != nil {
			l.Emit(trace.EvSend, uint32(p.Index), uint32(send.Msg.Index), uint64(send.key))
		}
		return msg, false, &Wake{Process: send.Process}, nil
	}
	return msg, false, nil, nil
}

// Count reports the number of messages queued at the port.
func (m *Manager) Count(p obj.AD) (int, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypePort); f != nil {
		return 0, f
	}
	_, count, f := m.counts(p)
	return int(count), f
}

// DisciplineOf reports the port's queueing discipline.
func (m *Manager) DisciplineOf(p obj.AD) (Discipline, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypePort); f != nil {
		return 0, f
	}
	d, f := m.Table.ReadWord(p, offDiscipline)
	return Discipline(d), f
}

func (m *Manager) counts(p obj.AD) (capacity, count uint16, f *obj.Fault) {
	if capacity, f = m.Table.ReadWord(p, offCapacity); f != nil {
		return
	}
	count, f = m.Table.ReadWord(p, offCount)
	return
}

// deposit places msg into a free slot with the given key and stamps the
// arrival sequence.
func (m *Manager) deposit(p obj.AD, capacity uint16, msg obj.AD, key uint32) *obj.Fault {
	for i := uint32(0); i < uint32(capacity); i++ {
		rec := offSlots + i*slotRecSize
		occ, f := m.Table.ReadWord(p, rec+recOccupied)
		if f != nil {
			return f
		}
		if occ != 0 {
			continue
		}
		seq, f := m.Table.ReadDWord(p, offSeq)
		if f != nil {
			return f
		}
		if f := m.Table.WriteDWord(p, offSeq, seq+1); f != nil {
			return f
		}
		if f := m.Table.StoreAD(p, slotMsg0+i, msg); f != nil {
			return f
		}
		if f := m.Table.WriteWord(p, rec+recOccupied, 1); f != nil {
			return f
		}
		if f := m.Table.WriteDWord(p, rec+recKey, key); f != nil {
			return f
		}
		if f := m.Table.WriteDWord(p, rec+recSeq, seq); f != nil {
			return f
		}
		count, f := m.Table.ReadWord(p, offCount)
		if f != nil {
			return f
		}
		return m.Table.WriteWord(p, offCount, count+1)
	}
	return obj.Faultf(obj.FaultOddity, p, "no free slot despite count < capacity")
}

// takeBest removes and returns the message the discipline orders first.
// The scan walks slots from 0 but stops once it has examined every
// occupied slot (the stored count), so a sparsely filled high-capacity
// port pays for its messages, not its capacity. Selection among the
// occupied slots is unchanged, so the result — and every byte written —
// is identical under all three disciplines.
func (m *Manager) takeBest(p obj.AD) (obj.AD, *obj.Fault) {
	disc, f := m.Table.ReadWord(p, offDiscipline)
	if f != nil {
		return obj.NilAD, f
	}
	capacity, count, f := m.counts(p)
	if f != nil {
		return obj.NilAD, f
	}
	best := -1
	var bestKey, bestSeq uint32
	seen := uint16(0)
	for i := uint32(0); i < uint32(capacity) && seen < count; i++ {
		rec := offSlots + i*slotRecSize
		occ, f := m.Table.ReadWord(p, rec+recOccupied)
		if f != nil {
			return obj.NilAD, f
		}
		if occ == 0 {
			continue
		}
		seen++
		key, f := m.Table.ReadDWord(p, rec+recKey)
		if f != nil {
			return obj.NilAD, f
		}
		seq, f := m.Table.ReadDWord(p, rec+recSeq)
		if f != nil {
			return obj.NilAD, f
		}
		better := false
		switch Discipline(disc) {
		case FIFO:
			better = best < 0 || seq < bestSeq
		case Priority:
			better = best < 0 || key > bestKey || (key == bestKey && seq < bestSeq)
		case Deadline:
			better = best < 0 || key < bestKey || (key == bestKey && seq < bestSeq)
		}
		if better {
			best, bestKey, bestSeq = int(i), key, seq
		}
	}
	if best < 0 {
		return obj.NilAD, obj.Faultf(obj.FaultOddity, p, "count > 0 but no occupied slot")
	}
	msg, f := m.Table.LoadAD(p, slotMsg0+uint32(best))
	if f != nil {
		return obj.NilAD, f
	}
	rec := offSlots + uint32(best)*slotRecSize
	if f := m.Table.WriteWord(p, rec+recOccupied, 0); f != nil {
		return obj.NilAD, f
	}
	if f := m.Table.StoreAD(p, slotMsg0+uint32(best), obj.NilAD); f != nil {
		return obj.NilAD, f
	}
	cnt, f := m.Table.ReadWord(p, offCount)
	if f != nil {
		return obj.NilAD, f
	}
	return msg, m.Table.WriteWord(p, offCount, cnt-1)
}

// parked describes a carrier removed from a wait queue.
type parked struct {
	Process obj.AD
	Msg     obj.AD
	key     uint32
}

// park appends a carrier holding proc (and, for senders, msg/key) to the
// wait queue named by the head/tail slots. Carriers come from the port's
// free pool when one is available, else from the port's own SRO — either
// way the whole structure shares the port's lifetime. Popping and pushing
// a pooled carrier is pure AD-slot traffic: nothing is allocated and
// nothing destroyed on the blocking path.
func (m *Manager) park(p obj.AD, headSlot, tailSlot uint32, proc, msg obj.AD, key uint32) *obj.Fault {
	car, f := m.carrier(p)
	if f != nil {
		return f
	}
	if f := m.Table.WriteDWord(car, carKey, key); f != nil {
		return f
	}
	// Hardware queues link below the level discipline: see StoreADSystem.
	if f := m.Table.StoreADSystem(car, carSlotProcess, proc); f != nil {
		return f
	}
	if msg.Valid() {
		if f := m.Table.StoreADSystem(car, carSlotMessage, msg); f != nil {
			return f
		}
	}
	tail, f := m.Table.LoadAD(p, tailSlot)
	if f != nil {
		return f
	}
	if tail.Valid() {
		if f := m.Table.StoreADSystem(tail, carSlotNext, car); f != nil {
			return f
		}
	} else {
		if f := m.Table.StoreADSystem(p, headSlot, car); f != nil {
			return f
		}
	}
	if f := m.Table.StoreADSystem(p, tailSlot, car); f != nil {
		return f
	}
	if l := m.Table.Tracer(); l != nil {
		var side uint64
		if headSlot == slotRecvHead {
			side = 1
		}
		l.Emit(trace.EvPark, uint32(p.Index), uint32(proc.Index), side)
	}
	return nil
}

// carrier produces a carrier for park: the head of the port's free pool if
// one is there, else a fresh allocation from the port's SRO.
func (m *Manager) carrier(p obj.AD) (obj.AD, *obj.Fault) {
	car, f := m.Table.LoadAD(p, slotFree)
	if f != nil {
		return obj.NilAD, f
	}
	if car.Valid() {
		next, f := m.Table.LoadAD(car, carSlotNext)
		if f != nil {
			return obj.NilAD, f
		}
		if f := m.Table.StoreADSystem(p, slotFree, next); f != nil {
			return obj.NilAD, f
		}
		if f := m.Table.StoreADSystem(car, carSlotNext, obj.NilAD); f != nil {
			return obj.NilAD, f
		}
		return car, nil
	}
	pd := m.Table.DescriptorAt(p.Index)
	sroAD, f := m.sroCapOf(pd.SRO, p)
	if f != nil {
		return obj.NilAD, f
	}
	return m.SRO.Create(sroAD, obj.CreateSpec{
		Type:        obj.TypeCarrier,
		DataLen:     carData,
		AccessSlots: carSlots,
	})
}

// pool scrubs a carrier just removed from a wait queue — the process slot
// always, the message slot when it carried one, so the pool never extends
// a process's or message's lifetime — and pushes it onto the port's free
// pool for the next park.
func (m *Manager) pool(p, car obj.AD) *obj.Fault {
	if f := m.Table.StoreADSystem(car, carSlotProcess, obj.NilAD); f != nil {
		return f
	}
	msg, f := m.Table.LoadAD(car, carSlotMessage)
	if f != nil {
		return f
	}
	if msg.Valid() {
		if f := m.Table.StoreADSystem(car, carSlotMessage, obj.NilAD); f != nil {
			return f
		}
	}
	free, f := m.Table.LoadAD(p, slotFree)
	if f != nil {
		return f
	}
	if f := m.Table.StoreADSystem(car, carSlotNext, free); f != nil {
		return f
	}
	return m.Table.StoreADSystem(p, slotFree, car)
}

// unpark removes the head carrier of a wait queue, pooling the carrier
// and returning its contents; nil if the queue is empty.
func (m *Manager) unpark(p obj.AD, headSlot, tailSlot uint32) (*parked, *obj.Fault) {
	head, f := m.Table.LoadAD(p, headSlot)
	if f != nil {
		return nil, f
	}
	if !head.Valid() {
		return nil, nil
	}
	proc, f := m.Table.LoadAD(head, carSlotProcess)
	if f != nil {
		return nil, f
	}
	msg, f := m.Table.LoadAD(head, carSlotMessage)
	if f != nil {
		return nil, f
	}
	key, f := m.Table.ReadDWord(head, carKey)
	if f != nil {
		return nil, f
	}
	next, f := m.Table.LoadAD(head, carSlotNext)
	if f != nil {
		return nil, f
	}
	if f := m.Table.StoreADSystem(p, headSlot, next); f != nil {
		return nil, f
	}
	if !next.Valid() {
		if f := m.Table.StoreADSystem(p, tailSlot, obj.NilAD); f != nil {
			return nil, f
		}
	}
	if f := m.pool(p, head); f != nil {
		return nil, f
	}
	if l := m.Table.Tracer(); l != nil {
		var side uint64
		if headSlot == slotRecvHead {
			side = 1
		}
		l.Emit(trace.EvUnpark, uint32(p.Index), uint32(proc.Index), side)
	}
	return &parked{Process: proc, Msg: msg, key: key}, nil
}

// WaitingSenders reports the number of processes blocked sending to p.
func (m *Manager) WaitingSenders(p obj.AD) (int, *obj.Fault) {
	return m.queueLen(p, slotSendHead)
}

// WaitingReceivers reports the number of processes blocked receiving
// from p.
func (m *Manager) WaitingReceivers(p obj.AD) (int, *obj.Fault) {
	return m.queueLen(p, slotRecvHead)
}

func (m *Manager) queueLen(p obj.AD, headSlot uint32) (int, *obj.Fault) {
	if _, f := m.Table.RequireType(p, obj.TypePort); f != nil {
		return 0, f
	}
	n := 0
	cur, f := m.Table.LoadAD(p, headSlot)
	if f != nil {
		return 0, f
	}
	for cur.Valid() {
		n++
		if cur, f = m.Table.LoadAD(cur, carSlotNext); f != nil {
			return 0, f
		}
	}
	return n, nil
}

// sroCapOf manufactures a full-rights capability for the SRO at idx. The
// port microcode needs it to allocate carriers; like the collector, the
// microcode operates below the capability discipline.
func (m *Manager) sroCapOf(idx obj.Index, p obj.AD) (obj.AD, *obj.Fault) {
	d := m.Table.DescriptorAt(idx)
	if d == nil || d.Type != obj.TypeSRO {
		return obj.NilAD, obj.Faultf(obj.FaultOddity, p, "port's ancestral SRO missing")
	}
	return obj.AD{Index: idx, Gen: d.Gen, Rights: obj.RightsAll}, nil
}
