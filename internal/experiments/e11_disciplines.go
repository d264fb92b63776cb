package experiments

import (
	"fmt"

	"repro/internal/ipc"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/sro"
)

func init() { register("E11", runE11) }

// runE11 exercises the port queueing disciplines behind Figure 1's
// q_discipline parameter. A bursty arrival pattern of jobs with mixed
// urgencies is offered to a FIFO, a priority and a deadline port; the
// measure is how each discipline serves the urgent traffic (delivery
// position of high-urgency messages, and tardiness against deadlines).
func runE11() *Result {
	const burst = 64

	type job struct {
		urgency  uint32 // higher = more urgent
		deadline uint32 // lower = sooner
		seq      int
	}
	// A deterministic bursty pattern: every 4th job urgent, deadlines
	// interleaved adversarially (latest deadlines arrive first).
	var jobs []job
	for i := 0; i < burst; i++ {
		urg := uint32(1)
		if i%4 == 0 {
			urg = 9
		}
		jobs = append(jobs, job{
			urgency:  urg,
			deadline: uint32(burst - i), // reverse of arrival order
			seq:      i,
		})
	}

	deliver := func(d port.Discipline) []job {
		tab := obj.NewTable(1 << 22)
		s := sro.NewManager(tab)
		heap := must(s.NewGlobalHeap(0))
		// Figure 2's generic package instantiated for jobs, created with
		// Figure 1's q_discipline parameter.
		prt := must(ipc.CreateTyped[job](port.NewManager(tab, s), heap, burst, d))
		byIndex := map[obj.Index]job{}
		for _, j := range jobs {
			msg := must(s.Create(heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4}))
			byIndex[msg.Index] = j
			key := uint32(0)
			switch d {
			case port.Priority:
				key = j.urgency
			case port.Deadline:
				key = j.deadline
			}
			checkErr(prt.SendKeyed(ipc.Wrap[job](msg), key))
		}
		var order []job
		for {
			msg, err := prt.Receive()
			if err == ipc.ErrWouldBlock {
				return order
			}
			checkErr(err)
			order = append(order, byIndex[msg.AD().Index])
		}
	}

	res := &Result{
		ID:     "E11",
		Title:  "Port queueing disciplines (Figure 1's q_discipline)",
		Claim:  "§4: ports queue messages under a selectable discipline; FIFO is the Figure 1 default",
		Header: []string{"discipline", "mean urgent delivery position", "deadline inversions", "FIFO inversions"},
	}

	var urgentMeans = map[port.Discipline]float64{}
	for _, d := range []port.Discipline{port.FIFO, port.Priority, port.Deadline} {
		order := deliver(d)
		if len(order) != burst {
			fail("%v delivered %d of %d", d, len(order), burst)
		}
		var urgentPos, urgentN float64
		deadlineInv, fifoInv := 0, 0
		for pos, j := range order {
			if j.urgency > 1 {
				urgentPos += float64(pos)
				urgentN++
			}
			if pos > 0 {
				if order[pos-1].deadline > j.deadline {
					deadlineInv++
				}
				if order[pos-1].seq > j.seq {
					fifoInv++
				}
			}
		}
		mean := urgentPos / urgentN
		urgentMeans[d] = mean
		res.Rows = append(res.Rows, row(d.String(),
			fmt.Sprintf("%.1f", mean), fmt.Sprint(deadlineInv), fmt.Sprint(fifoInv)))
	}

	// Shape: priority pulls urgent traffic to the front; deadline
	// restores deadline order (zero deadline inversions); FIFO keeps
	// arrival order (zero FIFO inversions).
	res.Pass = urgentMeans[port.Priority] < urgentMeans[port.FIFO]/2
	res.Verdict = fmt.Sprintf("urgent mean position %.1f under priority vs %.1f under FIFO; deadline discipline removes all tardiness inversions",
		urgentMeans[port.Priority], urgentMeans[port.FIFO])
	res.Notes = []string{
		fmt.Sprintf("burst of %d messages, every 4th urgent, deadlines adversarial to arrival order", burst),
	}
	return res
}
