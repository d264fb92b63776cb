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
// forwarded to overflowPort if valid, else the process is terminated.
func FaultHandlerBody(m *Swapping, faultPort, overflowPort obj.AD) gdp.NativeBody {
	return gdp.NativeBodyFunc(func(sys *gdp.System, self obj.AD) (vtime.Cycles, gdp.BodyStatus, *obj.Fault) {
		victim, ok, f := sys.ReceiveMessage(faultPort)
		if f != nil {
			return vtime.CostReceive, gdp.BodyYield, f
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
		code, f := sys.Procs.FaultCode(victim)
		if f != nil {
			return spent, gdp.BodyYield, f
		}
		if code != obj.FaultSegmentMoved {
			if overflowPort.Valid() {
				_, _ = sys.SendMessage(overflowPort, victim, uint32(code))
			} else {
				_ = sys.Procs.SetState(victim, process.StateTerminated)
			}
			return spent + vtime.CostSend, gdp.BodyYield, nil
		}
		idx, f := sys.Procs.FaultObject(victim)
		if f != nil {
			return spent, gdp.BodyYield, f
		}
		before := m.SwapCycles
		if f := m.EnsureResident(idx); f != nil {
			// The object is unrecoverable (or memory is wedged):
			// the victim cannot make progress; record and park it.
			_ = sys.Procs.SetState(victim, process.StateTerminated)
			return spent, gdp.BodyYield, nil
		}
		spent += m.SwapCycles - before
		m.FaultsServiced++
		if f := sys.Procs.SetState(victim, process.StateReady); f != nil {
			return spent, gdp.BodyYield, f
		}
		// A requeue the dispatcher cannot complete is system damage,
		// latched for the Step this body runs in, not the handler's
		// fault: a level-2 process may not fault (§7.3).
		sys.MakeReady(victim)
		return spent, gdp.BodyYield, nil
	})
}
