package port

import (
	"math/rand"
	"testing"

	"repro/internal/obj"
	"repro/internal/sro"
)

// TestConservationWithCancellation extends the conservation property to
// include waiter cancellation: through any interleaving of sends,
// receives and cancels, every message is exactly one of — delivered,
// queued, parked with a waiting sender, or returned by a cancel. No loss,
// no duplication, no carrier leaks.
func TestConservationWithCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		tab := obj.NewTable(1 << 22)
		s := sro.NewManager(tab)
		heap, _ := s.NewGlobalHeap(0)
		m := NewManager(tab, s)
		capacity := uint16(rng.Intn(4)) + 1
		prt, f := m.Create(heap, capacity, FIFO)
		if f != nil {
			t.Fatal(f)
		}

		type waiter struct{ proc, msg obj.AD }
		var parked []waiter
		sent, received, cancelled := 0, 0, 0

		newObj := func(typ obj.Type) obj.AD {
			ad, f := s.Create(heap, obj.CreateSpec{Type: typ, DataLen: 16, AccessSlots: 2})
			if f != nil {
				t.Fatal(f)
			}
			return ad
		}

		for op := 0; op < 200; op++ {
			switch rng.Intn(3) {
			case 0: // send
				msg := newObj(obj.TypeGeneric)
				proc := newObj(obj.TypeProcess)
				blocked, wake, f := m.Send(prt, msg, 0, proc)
				if f != nil {
					t.Fatal(f)
				}
				sent++
				if blocked {
					parked = append(parked, waiter{proc, msg})
				}
				if wake != nil && wake.Msg.Valid() {
					received++
				}
			case 1: // receive
				_, blocked, wake, f := m.Receive(prt, obj.NilAD)
				if f != nil {
					t.Fatal(f)
				}
				if !blocked {
					received++
				}
				if wake != nil && len(parked) > 0 {
					// FIFO: the woken sender is the head.
					if wake.Process.Index != parked[0].proc.Index {
						t.Fatal("senders woken out of order")
					}
					parked = parked[1:]
				}
			case 2: // cancel a random parked sender
				if len(parked) == 0 {
					continue
				}
				i := rng.Intn(len(parked))
				found, msg, f := m.CancelWaiter(prt, parked[i].proc)
				if f != nil {
					t.Fatal(f)
				}
				if !found {
					t.Fatal("parked sender not found by cancel")
				}
				if msg.Index != parked[i].msg.Index {
					t.Fatal("cancel returned wrong message")
				}
				parked = append(parked[:i], parked[i+1:]...)
				cancelled++
			}
		}
		queued, f := m.Count(prt)
		if f != nil {
			t.Fatal(f)
		}
		waiting, f := waitingSenders(m, prt)
		if f != nil {
			t.Fatal(f)
		}
		if waiting != len(parked) {
			t.Fatalf("trial %d: waiting=%d tracked=%d", trial, waiting, len(parked))
		}
		if sent != received+queued+waiting+cancelled {
			t.Fatalf("trial %d: %d sent != %d received + %d queued + %d waiting + %d cancelled",
				trial, sent, received, queued, waiting, cancelled)
		}
	}
}
