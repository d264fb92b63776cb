package gdp

import (
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// System-level services: the pieces of hardware behaviour that agents
// outside the instruction stream need — external message injection (an
// I/O subsystem posting to a port), and the interval timer that scheduling
// software depends on.

// SendMessage performs a hardware send on behalf of an agent that is not
// a simulated process (a device, the experiment harness): the message is
// queued and any blocked receiver is woken exactly as the send instruction
// would. It reports false when the port is full (the external agent cannot
// block), and a fault only for the port or message the agent passed: a
// wakeup the dispatcher cannot complete is system damage, which the next
// Step returns.
func (s *System) SendMessage(prt, msg obj.AD, key uint32) (bool, *obj.Fault) {
	blocked, wake, f := s.Ports.Send(prt, msg, key, obj.NilAD)
	if f != nil || blocked {
		return false, f
	}
	if wake != nil {
		s.Wake(*wake)
	}
	return true, nil
}

// ReceiveMessage performs a hardware receive on behalf of an external
// agent, waking a parked sender exactly as the receive instruction would.
// ok is false when the port is empty. As with SendMessage, a fault is the
// port's refusal, never the wakeup's.
func (s *System) ReceiveMessage(prt obj.AD) (msg obj.AD, ok bool, fault *obj.Fault) {
	msg, blocked, wake, f := s.Ports.Receive(prt, obj.NilAD)
	if f != nil || blocked {
		return obj.NilAD, false, f
	}
	if wake != nil {
		s.Wake(*wake)
	}
	return msg, true, nil
}

// timer is one pending interval-timer expiry. A plain timer returns proc
// to the dispatch mix; a watchdog timer (watch valid) instead checks
// whether proc is still parked at the watched port and, if so, cancels
// the wait and raises a timeout fault — the only fault §7.3 permits to
// level-2 system processes.
type timer struct {
	at    vtime.Cycles
	proc  obj.AD
	watch obj.AD // port under watchdog, or NilAD for a plain wakeup
}

// WakeAt arranges for proc to re-enter the dispatching mix when the
// system clock reaches at — the hardware interval timer that scheduling
// and timeout software is built on. The wakeup honours stop counts like
// any other.
func (s *System) WakeAt(at vtime.Cycles, proc obj.AD) {
	s.timers = append(s.timers, timer{at: at, proc: proc})
}

// WatchTimeout arms a watchdog: if proc is still parked at prt when the
// clock reaches at, the wait is cancelled and proc takes a timeout fault
// through the ordinary delivery path. If the operation completed first,
// the watchdog expires silently. This is the mechanism behind the
// "limited set of timeout faults" permitted to level-2 processes (§7.3).
func (s *System) WatchTimeout(at vtime.Cycles, proc obj.AD, prt obj.AD) {
	s.timers = append(s.timers, timer{at: at, proc: proc, watch: prt})
}

// fireTimers wakes every timer at or before now. A watched port that
// refuses the cancel is system damage, latched like a wakeup's.
func (s *System) fireTimers(now vtime.Cycles) {
	kept, fired := s.timers[:0], s.fired[:0]
	for _, t := range s.timers {
		if t.at <= now {
			fired = append(fired, t)
		} else {
			kept = append(kept, t)
		}
	}
	s.timers, s.fired = kept, fired
	for _, t := range fired {
		p := t.proc
		if _, f := s.Table.RequireType(p, obj.TypeProcess); f != nil {
			continue // process since collected
		}
		if l := s.Table.Tracer(); l != nil {
			l.Emit(trace.EvTimer, uint32(p.Index), 0, uint64(t.at))
		}
		st, f := s.Procs.StateOf(p)
		if f != nil || st == process.StateTerminated {
			continue
		}
		if t.watch.Valid() {
			if st != process.StateBlocked {
				continue // the operation completed in time
			}
			found, _, f := s.Ports.CancelWaiter(t.watch, p)
			s.damage.Keep(f)
			if !found {
				continue // blocked elsewhere; not ours to cancel
			}
			// The victim takes a timeout fault: the cancelled
			// message (for senders) stays with the fault handler's
			// problem — the port returned it to us but the
			// in-progress operation failed, exactly a timeout.
			s.deliverFault(s.CPUs[0], p, obj.Faultf(obj.FaultTimeout, t.watch, "port operation timed out"))
			continue
		}
		if st == process.StateBlocked {
			s.damage.Keep(s.Procs.SetState(p, process.StateReady))
		}
		s.MakeReady(p)
	}
}

// SetProcessorOnline takes a processor out of the dispatching mix or
// returns it. Going offline mid-run is the §3 degraded-operation story:
// the processor finishes nothing — its bound process (if any) returns to
// the dispatch port and other processors absorb the load, with no
// software change anywhere. It reports a fault only for a bad id; a
// requeue the dispatcher cannot complete is latched system damage.
func (s *System) SetProcessorOnline(id int, online bool) *obj.Fault {
	if id < 0 || id >= len(s.CPUs) {
		return obj.Faultf(obj.FaultBounds, obj.NilAD, "no processor %d", id)
	}
	cpu := s.CPUs[id]
	if cpu.offline == !online {
		return nil
	}
	cpu.offline = !online
	if !online && cpu.proc.Valid() {
		proc := cpu.proc
		cpu.unbind(s)
		s.damage.Keep(s.Procs.SetState(proc, process.StateReady))
		s.MakeReady(proc)
	}
	return nil
}

// OnlineProcessors reports how many processors are in service.
func (s *System) OnlineProcessors() int {
	n := 0
	for _, c := range s.CPUs {
		if !c.offline {
			n++
		}
	}
	return n
}

// TimersPending reports the number of armed timers; the run loop uses it
// to decide whether an apparently idle system still has future work.
func (s *System) TimersPending() int { return len(s.timers) }

// NextTimer reports the earliest pending expiry, or 0 when none.
func (s *System) NextTimer() vtime.Cycles {
	var min vtime.Cycles
	for i, t := range s.timers {
		if i == 0 || t.at < min {
			min = t.at
		}
	}
	return min
}
