// Package trace is the kernel event log of the simulated iMAX: a bounded
// ring buffer of fixed-size events plus monotonic per-kind counters, fed
// by hook points in the object table, the port machinery, the collector,
// the dispatching hardware and the memory managers.
//
// The paper's iMAX is built for diagnosability — small protection domains
// confine damage (§7.1) and the level discipline audits fault-rule
// violations (§7.3) — but the original had no systematic way to observe
// the kernel from outside. This package treats kernel activity as data
// (after TabulaROSA's "OS state as queryable tables"): every significant
// microcode event is recorded with the object indices involved, in a form
// that is deterministic for a given seed, so two runs of the same workload
// produce byte-identical logs and any divergence is itself a regression.
//
// Cost discipline: tracing must be free when disabled. All methods on
// *Log are safe on a nil receiver, and every hook site in the kernel is
// guarded by a plain nil check, so a disabled trace costs one predictable
// branch per event site — no interface calls, no allocation.
//
// A Log belongs to the goroutine that runs its kernel, so it takes no lock;
// the audit ledger's sealers are handed finished segments, never events.
package trace

import (
	"fmt"
	"io"
)

// Kind identifies a kernel event type. The numeric values are part of the
// dump format only within one build; code must use the names.
type Kind uint8

const (
	// EvNone is the zero Kind; it is never emitted.
	EvNone Kind = iota

	// Object layer (internal/obj).
	EvObjCreate  // Obj=index, Arg=hardware type, Aux=level
	EvObjDestroy // Obj=index, Arg=hardware type
	EvADStore    // Obj=destination index, Arg=stored index (0 = cleared), Aux=slot
	EvGray       // Obj=index shaded gray by the AD-move barrier
	EvSwapOut    // Obj=index, Aux=backing token
	EvSwapIn     // Obj=index

	// Port machinery (internal/port).
	EvSend   // Obj=port, Arg=message, Aux=key
	EvRecv   // Obj=port, Arg=message
	EvPark   // Obj=port, Arg=process, Aux=0 sender / 1 receiver
	EvUnpark // Obj=port, Arg=process, Aux=0 sender / 1 receiver
	EvCancel // Obj=port, Arg=process

	// Collector (internal/gc).
	EvGCPhase   // Obj=new phase
	EvGCMark    // Obj=index blackened
	EvGCReclaim // Obj=index reclaimed by sweep
	EvGCFilter  // Obj=index delivered to a destruction filter, Arg=TDO

	// Dispatching hardware and process management (internal/gdp,
	// internal/process, internal/pm).
	EvSpawn     // Obj=process
	EvDispatch  // Obj=process, Arg=processor id
	EvPreempt   // Obj=process, Arg=processor id
	EvProcState // Obj=process, Arg=new run state
	EvFault     // Obj=process, Arg=fault code, Aux=faulting object index
	EvTerminate // Obj=process
	EvStop      // Obj=process (basic process manager stop)
	EvStart     // Obj=process (basic process manager start)
	EvTimer     // Obj=process woken by the interval timer

	// Fault injection (internal/inject).
	EvInject // Obj=primary victim index, Arg=injection kind, Aux=plan instant (instruction count)

	numKinds
)

var kindNames = [...]string{
	EvNone:       "none",
	EvObjCreate:  "obj.create",
	EvObjDestroy: "obj.destroy",
	EvADStore:    "obj.adstore",
	EvGray:       "obj.gray",
	EvSwapOut:    "mm.swapout",
	EvSwapIn:     "mm.swapin",
	EvSend:       "port.send",
	EvRecv:       "port.recv",
	EvPark:       "port.park",
	EvUnpark:     "port.unpark",
	EvCancel:     "port.cancel",
	EvGCPhase:    "gc.phase",
	EvGCMark:     "gc.mark",
	EvGCReclaim:  "gc.reclaim",
	EvGCFilter:   "gc.filter",
	EvSpawn:      "proc.spawn",
	EvDispatch:   "proc.dispatch",
	EvPreempt:    "proc.preempt",
	EvProcState:  "proc.state",
	EvFault:      "proc.fault",
	EvTerminate:  "proc.terminate",
	EvStop:       "pm.stop",
	EvStart:      "pm.start",
	EvTimer:      "proc.timer",
	EvInject:     "inject.fire",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NumKinds reports the number of defined event kinds (for sizing counter
// views).
func NumKinds() int { return int(numKinds) }

// Event is one recorded kernel event. The fields are raw object-table
// indices and small scalars — no pointers, so a full ring is one flat
// allocation and events survive the objects they describe.
type Event struct {
	Seq  uint64 // monotonic emission number (not reset by ring wrap)
	Kind Kind
	Obj  uint32 // primary object index
	Arg  uint32 // secondary index or small scalar (kind-specific)
	Aux  uint64 // kind-specific payload (key, token, slot, cost)
}

func (e Event) String() string {
	return fmt.Sprintf("%8d %-14s obj=%-6d arg=%-6d aux=%d",
		e.Seq, e.Kind, e.Obj, e.Arg, e.Aux)
}

// Sink receives every emitted event, in emission order, inside Emit on the
// log's goroutine — implementations must not call back into the Log. A sink
// may finish its work on goroutines of its own (the ledger hashes segment
// bodies that way); those never touch the Log, and the sink guards whatever
// they or its readers share. The audit ledger (internal/ledger) is the
// standing implementation; the hook is nil-safe and costs one predictable
// branch per Emit when unset.
type Sink interface {
	Record(Event)
}

// Log is a bounded kernel event ring plus cumulative counters. A nil *Log
// is a valid, always-disabled log: every method is a cheap no-op, which is
// the "nil sink" the kernel hook sites rely on.
type Log struct {
	events []Event // ring storage
	next   int     // next write position
	filled bool    // ring has wrapped at least once
	seq    uint64
	counts [numKinds]uint64
	sink   Sink
}

// DefaultCapacity is the ring capacity used when New is given a
// non-positive one.
const DefaultCapacity = 1 << 14

// New returns an enabled log keeping the most recent capacity events.
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{events: make([]Event, capacity)}
}

// Enabled reports whether the log records events (false for nil).
func (l *Log) Enabled() bool { return l != nil }

// Emit records one event. Safe (and free apart from the call) on nil.
func (l *Log) Emit(k Kind, obj, arg uint32, aux uint64) {
	if l == nil {
		return
	}
	l.seq++
	l.counts[k]++
	ev := Event{Seq: l.seq, Kind: k, Obj: obj, Arg: arg, Aux: aux}
	l.events[l.next] = ev
	l.next++
	if l.next == len(l.events) {
		l.next = 0
		l.filled = true
	}
	if l.sink != nil {
		l.sink.Record(ev)
	}
}

// SetSink attaches (or with nil detaches) a downstream sink. Every event
// emitted from here on is also delivered to the sink, in sequence order.
func (l *Log) SetSink(s Sink) {
	if l != nil {
		l.sink = s
	}
}

// Sink returns the attached sink, or nil.
func (l *Log) Sink() Sink {
	if l == nil {
		return nil
	}
	return l.sink
}

// Seq reports the total number of events emitted (including any the ring
// has since overwritten).
func (l *Log) Seq() uint64 {
	if l == nil {
		return 0
	}
	return l.seq
}

// Snapshot returns the sequence number and a copy of the per-kind counters.
func (l *Log) Snapshot() (seq uint64, counts []uint64) {
	return l.Seq(), l.Counts()
}

// Counts returns a copy of the cumulative per-kind counters, indexed by
// Kind.
func (l *Log) Counts() []uint64 {
	out := make([]uint64, numKinds)
	if l != nil {
		copy(out, l.counts[:])
	}
	return out
}

// Events returns the retained events, oldest first.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	if !l.filled {
		return append([]Event(nil), l.events[:l.next]...)
	}
	out := make([]Event, 0, len(l.events))
	out = append(out, l.events[l.next:]...)
	return append(out, l.events[:l.next]...)
}

// Reset clears the ring and counters; the sequence number keeps running
// so post-reset events remain globally ordered against earlier dumps.
// Reset does NOT reach the attached sink: an operator clearing the ring
// must not be able to erase audit history, so what a ledger has sealed,
// and the events of its open segment, survive.
func (l *Log) Reset() {
	if l == nil {
		return
	}
	l.next, l.filled, l.counts = 0, false, [numKinds]uint64{}
}

// Dump writes every retained event, one per line, oldest first. The
// output is deterministic for a deterministic run: it contains only
// sequence numbers and object indices, never pointers or wall-clock time,
// so byte-comparing the dumps of two same-seed runs is a valid regression
// check.
func (l *Log) Dump(w io.Writer) error {
	for _, e := range l.Events() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteCounts renders the non-zero cumulative counters as a two-column
// table, in Kind order (deterministic).
func (l *Log) WriteCounts(w io.Writer) error {
	counts := l.Counts()
	for k, n := range counts {
		if n == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-14s %12d\n", Kind(k), n); err != nil {
			return err
		}
	}
	return nil
}
