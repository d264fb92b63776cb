package mm

import (
	"repro/internal/gdp"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
)

// FaultHandlerBody returns the native body of the segment-fault service:
// a system process (level 2 in the §7.3 discipline — it may not fault
// itself) that receives faulted processes from faultPort, restores the
// residency of the object each one touched, and returns the process to
// the dispatching mix. User processes configured with this fault port
// never observe that "a segment might be being moved and therefore be
// inaccessible for some period of time".
//
// Faults other than segment faults are beyond this service; they are
// forwarded to overflowPort if valid. A victim with no overflow port, or one
// it will not take (full or refusing), is terminated, as a fault delivery to
// a full port terminates its process; so is one whose object cannot be
// restored. The body returns no fault on any path: a fault port that refuses
// the receive is broken for good (ports are never swapped out), so the
// service ends, visibly, rather than poll it; a message that does not open
// as a process is a doctored world, and is dropped.
func FaultHandlerBody(m *Swapping, faultPort, overflowPort obj.AD) gdp.NativeBody {
	return gdp.NativeBodyFunc(func(sys *gdp.System, self obj.AD) (vtime.Cycles, gdp.BodyStatus, *obj.Fault) {
		victim, ok, f := sys.ReceiveMessage(faultPort)
		if f != nil {
			return vtime.CostReceive, gdp.BodyDone, nil
		}
		if !ok {
			// Nothing to service; sleep until the next fault
			// wakes us via the port. Poll on the interval timer:
			// the fault port cannot name us directly because we
			// service many processes (asynchronous upward
			// communication only, §7.3).
			sys.WakeAt(sys.Now()+2_000, self)
			return vtime.CostReceive, gdp.BodyWaiting, nil
		}
		spent := vtime.CostReceive
		var vv process.Proc
		sys.Procs.Open(victim, obj.RightRead|obj.RightWrite, &vv)
		code, idx := vv.FaultCode(), vv.FaultObject()
		if vv.Fault() != nil {
			return spent, gdp.BodyYield, nil
		}
		if code != obj.FaultSegmentMoved {
			if !overflowPort.Valid() {
				vv.SetState(process.StateTerminated)
			} else if sent, f := sys.SendMessage(overflowPort, victim, uint32(code)); f != nil || !sent {
				vv.SetState(process.StateTerminated)
			}
			return spent + vtime.CostSend, gdp.BodyYield, nil
		}
		// EnsureResident evicts only swappable objects, never a process,
		// and moves nothing, so the victim's view stays good across it.
		before := m.SwapCycles
		if m.EnsureResident(idx) != nil {
			// The object is unrecoverable (or memory is wedged): the
			// victim cannot make progress.
			vv.SetState(process.StateTerminated)
			return spent, gdp.BodyYield, nil
		}
		spent += m.SwapCycles - before
		m.FaultsServiced++
		vv.SetState(process.StateReady)
		sys.MakeReady(victim)
		return spent, gdp.BodyYield, nil
	})
}
