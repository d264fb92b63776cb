package audit

import "fmt"

// Cross-node reference accounting for the cluster transfer channel
// (internal/cluster). A graph image in flight between kernels is on
// exactly one wire buffer until delivery, on none once delivered, and
// the activation-side object count of a closed flight must reconcile
// with the passivation-side count. No filing volume holds a flight: the
// receiver activates the bytes the wire carried. The cluster snapshots
// its ledger and queues into the neutral structs below so this package
// can check the invariants without importing cluster (which imports
// audit for per-node checks).

// Transfer-flight states as recorded in GraphFlight.State.
const (
	FlightWire      = "wire"      // serialized, sitting in exactly one wire buffer
	FlightDelivered = "delivered" // off the wire, checked, not yet activated
	FlightClosed    = "closed"    // activated (or failed) and removed everywhere
)

// GraphFlight is the ledger's view of one shipped graph, joined against
// ground truth observed when the snapshot was taken: how many wire
// buffers actually hold the image.
type GraphFlight struct {
	ID        uint64
	From, To  int
	State     string
	Objects   int  // passivation-side object count
	Activated int  // activation-side object count (0 until closed)
	Failed    bool // activation refused the image
	// Observed ownership, not a ledger claim: images carrying this graph
	// ID across all queues.
	WireCopies int
}

// TransferSnapshot is everything CheckTransfers needs: the per-flight
// ledger join plus each node's filing-store counters. The per-node
// counters assume the transfer channel is the stores' only client, which
// holds inside a Cluster: nodes boot with private stores that only
// Ship and Materialize touch.
type TransferSnapshot struct {
	Nodes   int
	Flights []GraphFlight
	// Per-node filing.Store counters at snapshot time.
	NodeFiledObjects     []uint64
	NodeActivatedObjects []uint64
}

// CheckTransfers validates single-ownership and passivation/activation
// reconciliation over a cluster snapshot. Violations use subsystem
// "transfer"; Obj carries the graph ID (or the node for totals).
func CheckTransfers(s TransferSnapshot) []Violation {
	var out []Violation
	bad := func(id uint64, format string, args ...any) {
		out = append(out, Violation{Subsystem: "transfer", Obj: 0,
			Msg: fmt.Sprintf("graph %d: %s", id, fmt.Sprintf(format, args...))})
	}

	var filedTotal, activatedTotal uint64
	for _, fl := range s.Flights {
		if fl.From < 0 || fl.From >= s.Nodes || fl.To < 0 || fl.To >= s.Nodes {
			bad(fl.ID, "endpoints %d->%d outside cluster of %d nodes", fl.From, fl.To, s.Nodes)
			continue
		}
		if fl.Objects <= 0 {
			bad(fl.ID, "shipped with %d objects", fl.Objects)
		}
		filedTotal += uint64(fl.Objects)
		switch fl.State {
		case FlightWire:
			if fl.WireCopies != 1 {
				bad(fl.ID, "on the wire with %d wire copies, want exactly 1", fl.WireCopies)
			}
			if fl.Activated != 0 {
				bad(fl.ID, "on the wire yet %d objects already activated", fl.Activated)
			}
		case FlightDelivered:
			if fl.WireCopies != 0 {
				bad(fl.ID, "delivered but %d wire copies remain", fl.WireCopies)
			}
			if fl.Activated != 0 {
				bad(fl.ID, "delivered yet %d objects already activated", fl.Activated)
			}
		case FlightClosed:
			if fl.WireCopies != 0 {
				bad(fl.ID, "closed but %d wire copies remain", fl.WireCopies)
			}
			if fl.Failed {
				if fl.Activated != 0 {
					bad(fl.ID, "failed activation yet %d objects live", fl.Activated)
				}
			} else if fl.Activated != fl.Objects {
				bad(fl.ID, "activated %d of %d passivated objects", fl.Activated, fl.Objects)
			}
			if !fl.Failed {
				activatedTotal += uint64(fl.Activated)
			}
		default:
			bad(fl.ID, "unknown flight state %q", fl.State)
		}
	}

	total := func(ns []uint64) (t uint64) {
		for _, n := range ns {
			t += n
		}
		return
	}
	if len(s.NodeFiledObjects) != s.Nodes || len(s.NodeActivatedObjects) != s.Nodes {
		out = append(out, Violation{Subsystem: "transfer",
			Msg: fmt.Sprintf("snapshot counters cover %d/%d nodes, want %d",
				len(s.NodeFiledObjects), len(s.NodeActivatedObjects), s.Nodes)})
		return out
	}
	if got := total(s.NodeFiledObjects); got != filedTotal {
		out = append(out, Violation{Subsystem: "transfer",
			Msg: fmt.Sprintf("nodes passivated %d objects, ledger accounts for %d", got, filedTotal)})
	}
	if got := total(s.NodeActivatedObjects); got != activatedTotal {
		out = append(out, Violation{Subsystem: "transfer",
			Msg: fmt.Sprintf("nodes activated %d objects, ledger accounts for %d", got, activatedTotal)})
	}
	return out
}
