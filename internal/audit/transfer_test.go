package audit

import (
	"strings"
	"testing"
)

func snap(flights ...GraphFlight) TransferSnapshot {
	s := TransferSnapshot{Nodes: 2,
		NodeFiledObjects:     []uint64{0, 0},
		NodeActivatedObjects: []uint64{0, 0}}
	for _, f := range flights {
		s.Flights = append(s.Flights, f)
		if f.From >= 0 && f.From < s.Nodes {
			s.NodeFiledObjects[f.From] += uint64(f.Objects)
		}
		if f.State == FlightClosed && !f.Failed && f.To >= 0 && f.To < s.Nodes {
			s.NodeActivatedObjects[f.To] += uint64(f.Activated)
		}
	}
	return s
}

func TestCheckTransfersCleanStates(t *testing.T) {
	s := snap(
		GraphFlight{ID: 1, From: 0, To: 1, State: FlightWire, Objects: 3, WireCopies: 1},
		GraphFlight{ID: 2, From: 1, To: 0, State: FlightDelivered, Objects: 2},
		GraphFlight{ID: 3, From: 0, To: 1, State: FlightClosed, Objects: 4, Activated: 4},
		GraphFlight{ID: 4, From: 0, To: 1, State: FlightClosed, Objects: 2, Failed: true},
	)
	if vs := CheckTransfers(s); len(vs) > 0 {
		t.Fatalf("clean snapshot flagged: %v", vs)
	}
}

func TestCheckTransfersViolations(t *testing.T) {
	cases := []struct {
		name string
		fl   GraphFlight
		want string
	}{
		{"zero wire copies", GraphFlight{ID: 1, To: 1, State: FlightWire, Objects: 1, WireCopies: 0}, "wire copies"},
		{"double wire copies", GraphFlight{ID: 1, To: 1, State: FlightWire, Objects: 1, WireCopies: 2}, "wire copies"},
		// "store" is the receiving node: a delivered image, or the
		// objects activation stored there.
		{"wire and store", GraphFlight{ID: 1, To: 1, State: FlightWire, Objects: 1, WireCopies: 1, Activated: 1}, "already activated"},
		{"store without copy", GraphFlight{ID: 1, To: 1, State: FlightClosed, Objects: 1}, "activated 0 of 1"},
		{"store with wire copy", GraphFlight{ID: 1, To: 1, State: FlightDelivered, Objects: 1, WireCopies: 1}, "wire copies remain"},
		{"delivered but activated", GraphFlight{ID: 1, To: 1, State: FlightDelivered, Objects: 1, Activated: 1}, "already activated"},
		{"closed still held", GraphFlight{ID: 1, To: 1, State: FlightClosed, Objects: 1, Activated: 1, WireCopies: 1}, "wire copies remain"},
		{"count mismatch", GraphFlight{ID: 1, To: 1, State: FlightClosed, Objects: 3, Activated: 2}, "activated 2 of 3"},
		{"failed but live", GraphFlight{ID: 1, To: 1, State: FlightClosed, Objects: 2, Activated: 2, Failed: true}, "failed activation"},
		{"bad endpoint", GraphFlight{ID: 1, From: 5, To: 1, State: FlightWire, Objects: 1, WireCopies: 1}, "outside cluster"},
		{"unknown state", GraphFlight{ID: 1, To: 1, State: "limbo", Objects: 1}, "unknown flight state"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := CheckTransfers(snap(tc.fl))
			if len(vs) == 0 {
				t.Fatal("violation not detected")
			}
			found := false
			for _, v := range vs {
				if strings.Contains(v.Msg, tc.want) {
					found = true
				}
				if v.Subsystem != "transfer" {
					t.Fatalf("subsystem = %q", v.Subsystem)
				}
			}
			if !found {
				t.Fatalf("no violation mentions %q: %v", tc.want, vs)
			}
		})
	}
}

func TestCheckTransfersReconciliation(t *testing.T) {
	s := snap(GraphFlight{ID: 1, From: 0, To: 1, State: FlightClosed, Objects: 3, Activated: 3})
	s.NodeFiledObjects[0] = 5 // node filed more than the ledger saw
	vs := CheckTransfers(s)
	if len(vs) == 0 {
		t.Fatal("passivation-side mismatch not detected")
	}
	s = snap(GraphFlight{ID: 1, From: 0, To: 1, State: FlightClosed, Objects: 3, Activated: 3})
	s.NodeActivatedObjects[1] = 1
	if vs := CheckTransfers(s); len(vs) == 0 {
		t.Fatal("activation-side mismatch not detected")
	}
}
