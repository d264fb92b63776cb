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
	"encoding/binary"

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

	// wake is where Send and Receive put the *Wake they return, so waking
	// a process allocates nothing. It says nothing about any port.
	wake Wake
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
	var pv obj.View
	m.Table.View(p, obj.TypePort, obj.RightWrite, &pv)
	pv.SetWord(offDiscipline, uint16(d))
	pv.SetWord(offCapacity, capacity)
	return p, pv.Fault()
}

// Wake describes a process unblocked by a port operation: the dispatching
// machinery (internal/gdp) must return it to the dispatch mix. For a woken
// receiver, Msg carries the message it was handed. A *Wake returned by Send
// or Receive points into the Manager and is valid until the next call on
// that Manager: read or copy it before operating on any port again.
type Wake struct {
	Process obj.AD
	Msg     obj.AD
}

// open checks that p is a port capability carrying the send right, and
// returns the port's lifetime level: Send tests its message before its fill.
func (m *Manager) open(p obj.AD) (obj.Level, *obj.Fault) {
	d, f := m.Table.RequireType(p, obj.TypePort)
	if f != nil {
		return 0, f
	}
	if !p.Rights.Has(RightSend) {
		return 0, obj.Faultf(obj.FaultRights, p, "need send right")
	}
	return d.Level, nil
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
	level, f := m.open(p)
	if f != nil {
		return false, nil, f
	}
	if !msg.Valid() {
		return false, nil, obj.Faultf(obj.FaultInvalidAD, msg, "nil message")
	}
	// The lifetime rule of §5: a message must be no shorter-lived than
	// the port carrying it, or a receiver could be handed a dangling
	// reference after the sender's heap unwinds.
	msgLevel, f := m.Table.LevelOf(msg)
	if f != nil {
		return false, nil, f
	}
	if msgLevel > level {
		return false, nil, obj.Faultf(obj.FaultLevel, msg,
			"level-%d message through level-%d port", msgLevel, level)
	}

	// One walk from the AD to the port's segments serves every access
	// below; each still tests its own right and its bounds, and the first
	// one refused ends the instruction: the view latches it and every
	// access after it is a no-op.
	var pv obj.View
	m.Table.View(p, obj.TypePort, obj.RightRead, &pv)
	capacity, count := pv.Word(offCapacity), pv.Word(offCount)
	switch {
	case pv.Fault() != nil:
	case count < capacity:
		deposit(&pv, msg, key)
		// A blocked receiver (possible only when the queue was empty)
		// takes the best message immediately.
		if recv, waiting := m.unpark(&pv, slotRecvHead, slotRecvTail); waiting {
			m.wake = Wake{Process: recv.Process, Msg: takeBest(&pv)}
			wake = &m.wake
		}
	default: // the conditional send would block; the other does
		blocked = true
		if proc.Valid() {
			m.park(&pv, slotSendHead, slotSendTail, proc, msg, key)
		}
	}
	if f := pv.Fault(); f != nil {
		return false, nil, f
	}
	return blocked, wake, nil
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
	// One fill tests the receive and read rights: nothing lies between them.
	var pv obj.View
	m.Table.View(p, obj.TypePort, RightReceive|obj.RightRead, &pv)
	switch {
	case pv.Fault() != nil:
	case pv.Word(offCount) > 0:
		msg = takeBest(&pv)
		pv.Emit(trace.EvRecv, uint32(msg.Index), 0)
		// A blocked sender's message moves into the freed slot.
		if send, waiting := m.unpark(&pv, slotSendHead, slotSendTail); waiting {
			deposit(&pv, send.Msg, send.key)
			m.wake = Wake{Process: send.Process}
			wake = &m.wake
		}
	default:
		blocked = true
		if proc.Valid() {
			m.park(&pv, slotRecvHead, slotRecvTail, proc, obj.NilAD, 0)
		}
	}
	if f := pv.Fault(); f != nil {
		return obj.NilAD, false, nil, f
	}
	return msg, blocked, wake, nil
}

// Count reports the number of messages queued at the port.
func (m *Manager) Count(p obj.AD) (int, *obj.Fault) {
	var pv obj.View
	m.Table.View(p, obj.TypePort, obj.RightRead, &pv)
	return int(pv.Word(offCount)), pv.Fault()
}

// window is one read span over the data part of a port view that has not
// faulted, with the capacity word and how many slot records the span holds
// of its claim: all, or fewer when a damaged word claims records past the
// data part. A scan that needs the first missing record faults on it through
// the per-field read of its occupied word, so the diagnosis is that read's.
func window(pv *obj.View) (win []byte, capacity uint16, held uint32) {
	data, _ := pv.Windows()
	win = pv.Span(obj.RightRead, 0, uint32(len(data)))
	capacity = binary.LittleEndian.Uint16(win[offCapacity:])
	return win, capacity, min(uint32(capacity), uint32(len(win)-offSlots)/slotRecSize)
}

// deposit places msg into the lowest free slot with the given key, stamps
// the arrival sequence and emits the send event.
func deposit(pv *obj.View, msg obj.AD, key uint32) {
	le := binary.LittleEndian
	win, capacity, held := window(pv)
	for i := uint32(0); i < held; i++ {
		if le.Uint16(win[offSlots+i*slotRecSize+recOccupied:]) != 0 {
			continue
		}
		// The sequence bump is the first write, where the write right is
		// tested; the record and the count are written once the message is in.
		w := pv.Span(obj.RightWrite, 0, uint32(len(win)))
		if w == nil {
			return
		}
		seq := le.Uint32(w[offSeq:])
		le.PutUint32(w[offSeq:], seq+1)
		if pv.StoreAD(slotMsg0+i, msg); pv.Fault() != nil {
			return
		}
		rec := w[offSlots+i*slotRecSize:]
		le.PutUint16(rec[recOccupied:], 1)
		le.PutUint32(rec[recKey:], key)
		le.PutUint32(rec[recSeq:], seq)
		le.PutUint16(w[offCount:], le.Uint16(w[offCount:])+1)
		pv.Emit(trace.EvSend, uint32(msg.Index), uint64(key))
		return
	}
	if held < uint32(capacity) {
		pv.Word(offSlots + held*slotRecSize + recOccupied)
	}
	pv.Latch(obj.Faultf(obj.FaultOddity, pv.AD(), "no free slot despite count < capacity"))
}

// takeBest removes and returns the message the discipline orders first.
// The scan walks slots from 0 but stops once it has examined every
// occupied slot (the stored count), so a sparsely filled high-capacity
// port pays for its messages, not its capacity.
func takeBest(pv *obj.View) obj.AD {
	le := binary.LittleEndian
	win, capacity, held := window(pv)
	disc, count := Discipline(le.Uint16(win[offDiscipline:])), le.Uint16(win[offCount:])
	best := -1
	var bestKey, bestSeq uint32
	seen := uint16(0)
	for i := uint32(0); i < held && seen < count; i++ {
		rec := win[offSlots+i*slotRecSize:][:slotRecSize]
		if le.Uint16(rec[recOccupied:]) == 0 {
			continue
		}
		seen++
		key, seq := le.Uint32(rec[recKey:]), le.Uint32(rec[recSeq:])
		better := false
		switch disc {
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
	if seen < count && held < uint32(capacity) {
		pv.Word(offSlots + held*slotRecSize + recOccupied)
	}
	if best < 0 {
		pv.Latch(obj.Faultf(obj.FaultOddity, pv.AD(), "count > 0 but no occupied slot"))
		return obj.NilAD
	}
	msg := pv.LoadAD(slotMsg0 + uint32(best))
	// The occupied-word clear is the first write, where the write right is
	// tested; the count follows the slot's clear only if that succeeded.
	if w := pv.Span(obj.RightWrite, 0, uint32(len(win))); w != nil {
		le.PutUint16(w[offSlots+uint32(best)*slotRecSize+recOccupied:], 0)
		if pv.StoreAD(slotMsg0+uint32(best), obj.NilAD); pv.Fault() == nil {
			le.PutUint16(w[offCount:], count-1)
		}
	}
	return msg
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
//
// The carrier has a view of its own, and the instruction is still one
// unit: wherever the accesses pass from one view to the other, the first
// hands its fault over (Latch), so a refusal on either side stops both.
func (m *Manager) park(pv *obj.View, headSlot, tailSlot uint32, proc, msg obj.AD, key uint32) {
	var cv obj.View
	m.carrier(pv, &cv)
	car := cv.AD()
	cv.SetDWord(carKey, key)
	// Hardware queues link below the level discipline: see StoreADSystem.
	cv.StoreADSystem(carSlotProcess, proc)
	if msg.Valid() {
		cv.StoreADSystem(carSlotMessage, msg)
	}
	pv.Latch(cv.Fault())
	if tail := pv.LoadAD(tailSlot); tail.Valid() {
		pv.Latch(m.Table.StoreADSystem(tail, carSlotNext, car))
	} else {
		pv.StoreADSystem(headSlot, car)
	}
	pv.StoreADSystem(tailSlot, car)
	pv.Emit(trace.EvPark, uint32(proc.Index), side(headSlot))
}

// side is the Aux of a park or unpark event: 0 sender, 1 receiver.
func side(headSlot uint32) uint64 {
	if headSlot == slotRecvHead {
		return 1
	}
	return 0
}

// carrier produces a carrier for park and resolves it into cv: the head of
// the port's free pool if one is there, else a fresh allocation from the
// SRO the port came from. The microcode manufactures that SRO's capability:
// like the collector, it operates below the capability discipline.
func (m *Manager) carrier(pv, cv *obj.View) {
	car := pv.LoadAD(slotFree)
	if !car.Valid() && pv.Fault() == nil {
		sroAD, _ := m.Table.SystemAD(m.Table.DescriptorAt(pv.AD().Index).SRO)
		car, f := m.SRO.Create(sroAD, obj.CreateSpec{
			Type:        obj.TypeCarrier,
			DataLen:     carData,
			AccessSlots: carSlots,
		})
		pv.Latch(f)
		m.Table.View(car, obj.TypeCarrier, obj.RightWrite, cv)
		return
	}
	m.Table.View(car, obj.TypeCarrier, obj.RightRead, cv)
	next := cv.LoadAD(carSlotNext)
	pv.Latch(cv.Fault())
	pv.StoreADSystem(slotFree, next)
	cv.Latch(pv.Fault())
	cv.StoreADSystem(carSlotNext, obj.NilAD)
}

// pool scrubs a carrier just removed from a wait queue — the process slot
// always, the message slot when it carried one, so the pool never extends
// a process's or message's lifetime — and pushes it onto the port's free
// pool for the next park.
func pool(pv, cv *obj.View) {
	free := pv.LoadAD(slotFree)
	cv.Latch(pv.Fault())
	cv.StoreADSystem(carSlotProcess, obj.NilAD)
	if cv.LoadAD(carSlotMessage).Valid() {
		cv.StoreADSystem(carSlotMessage, obj.NilAD)
	}
	cv.StoreADSystem(carSlotNext, free)
	pv.Latch(cv.Fault())
	pv.StoreADSystem(slotFree, cv.AD())
}

// unpark removes the head carrier of a wait queue, pooling the carrier
// and returning its contents; ok is false if the queue is empty or the
// operation has faulted.
func (m *Manager) unpark(pv *obj.View, headSlot, tailSlot uint32) (w parked, ok bool) {
	head := pv.LoadAD(headSlot)
	if !head.Valid() {
		return w, false
	}
	var hv obj.View
	m.Table.View(head, obj.TypeCarrier, obj.RightRead, &hv)
	w = parked{hv.LoadAD(carSlotProcess), hv.LoadAD(carSlotMessage), hv.DWord(carKey)}
	next := hv.LoadAD(carSlotNext)
	pv.Latch(hv.Fault())
	pv.StoreADSystem(headSlot, next)
	if !next.Valid() {
		pv.StoreADSystem(tailSlot, obj.NilAD)
	}
	pool(pv, &hv)
	pv.Emit(trace.EvUnpark, uint32(w.Process.Index), side(headSlot))
	return w, pv.Fault() == nil
}

// cyclic is the fault of a wait-queue or free-pool walk that has visited
// more carriers than the table holds objects: the chain is damaged into a
// cycle, and the walk stops instead of hanging the simulator.
func cyclic(p obj.AD) *obj.Fault {
	return obj.Faultf(obj.FaultOddity, p, "carrier chain longer than the object table: cycle")
}
