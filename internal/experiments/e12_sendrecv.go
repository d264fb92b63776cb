package experiments

import (
	"fmt"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/vtime"
	"repro/internal/workload"
)

func init() { register("E12", runE12) }

// runE12 measures the port instructions of §4: send and receive are
// single (microcoded) instructions, well below a domain switch in cost,
// and the blocking path — sender parked in a carrier, woken by the
// receiver — costs only what the dispatching machinery charges. We run a
// non-blocking relay and a fully blocking ping-pong and report both, and
// the conditional forms against a port that is full and then empty.
func runE12() *Result {
	const msgs = 2000

	// Non-blocking: one process sends and receives on a roomy port.
	fastCy := measureSelfRelay(msgs)
	// Blocking: capacity-1 port, two processes, every exchange parks
	// and wakes someone.
	slowCy := measurePingPong(msgs)
	// Conditional forms: a full or an empty port answers at once.
	condCy := measureConditional()

	pairUs := vtime.Cycles(fastCy).Microseconds()
	blockUs := vtime.Cycles(slowCy).Microseconds()
	domainUs := (vtime.CostDomainCall + vtime.CostDomainReturn).Microseconds()

	res := &Result{
		ID:     "E12",
		Title:  "Send/receive instruction cost and blocking semantics",
		Claim:  "§4: send and receive are single hardware instructions; blocked processes resume automatically when space or messages appear",
		Header: []string{"path", "cycles/exchange", "µs @8MHz"},
		Rows: [][]string{
			row("send+receive, no blocking", fmt.Sprintf("%.0f", fastCy), fmt.Sprintf("%.1f", pairUs)),
			row("send+receive, blocking handoff", fmt.Sprintf("%.0f", slowCy), fmt.Sprintf("%.1f", blockUs)),
			row("conditional send+receive: full and empty port refuse, nothing parks", fmt.Sprintf("%.0f", condCy), fmt.Sprintf("%.1f", vtime.Cycles(condCy).Microseconds())),
			row("(domain switch, for scale)", fmt.Sprint(uint64(vtime.CostDomainCall+vtime.CostDomainReturn)), fmt.Sprintf("%.1f", domainUs)),
		},
		Notes: []string{
			"blocking exchanges include carrier creation, dispatch-port traffic and processor rebinding",
		},
	}
	res.Pass = pairUs < domainUs && slowCy > fastCy && condCy == float64(vtime.CostSend+vtime.CostReceive)
	res.Verdict = fmt.Sprintf("%.1f µs per unblocked exchange (vs %.1f µs domain switch); blocking handoff %.1f µs", pairUs, domainUs, blockUs)
	return res
}

// onePort boots one processor with a port of the given capacity and a
// 16-byte message object.
func onePort(capacity uint16) (sys *gdp.System, prt, msg obj.AD) {
	sys = try(gdp.New(gdp.Config{Processors: 1}))
	prt = must(sys.Ports.Create(sys.Heap, capacity, 0))
	msg = must(sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16}))
	return sys, prt, msg
}

func measureSelfRelay(msgs int) float64 {
	sys, prt, msg := onePort(4)
	dom := must(workload.Domain(sys, []isa.Instr{
		isa.MovI(4, uint32(msgs)),
		isa.MovI(5, 0),
		isa.Send(1, 2, 5),
		isa.Recv(1, 2),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 2),
		isa.Halt(),
	}))
	p := must(sys.Spawn(dom, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, msg, prt}}))
	overhead := vtime.Cycles(msgs) * (vtime.CostALU + vtime.CostBranch)
	return float64(busyCycles(sys, p)-overhead) / float64(msgs)
}

func measurePingPong(msgs int) float64 {
	sys, ping, ball := onePort(1)
	pong := must(sys.Ports.Create(sys.Heap, 1, 0))
	// a2 = receive port, a3 = send port, a1 = the ball (server starts
	// with it).
	player := func(starts bool) obj.AD {
		exchange := []isa.Instr{isa.Recv(1, 2), isa.Send(1, 3, 5)}
		if starts {
			exchange[0], exchange[1] = exchange[1], exchange[0]
		}
		return must(workload.Domain(sys, []isa.Instr{
			isa.MovI(4, uint32(msgs)),
			isa.MovI(5, 0),
			exchange[0],
			exchange[1],
			isa.AddI(4, 4, ^uint32(0)),
			isa.BrNZ(4, 2),
			isa.Halt(),
		}))
	}
	p1 := must(sys.Spawn(player(true), gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, ball, pong, ping}}))
	p2 := must(sys.Spawn(player(false), gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, ping, pong}}))
	// Each round trip is two exchanges (one per player).
	return float64(busyCycles(sys, p1, p2)) / float64(2*msgs)
}

// measureConditional runs the conditional instructions against a
// capacity-1 port: a send that fits, one that does not, a receive that
// finds the message, one that finds nothing. The flags must read 1, 0, 1, 0
// and the process must finish without ever leaving the processor; the
// reported cost is that of a send and a receive, refused or not.
func measureConditional() float64 {
	sys, prt, msg := onePort(1)
	dom := must(workload.Domain(sys, []isa.Instr{
		isa.CSend(1, 2, 4),
		isa.CSend(1, 2, 5),
		isa.CRecv(3, 2, 6),
		isa.CRecv(3, 2, 7),
		isa.Store(4, 1, 0),
		isa.Store(5, 1, 4),
		isa.Store(6, 1, 8),
		isa.Store(7, 1, 12),
		isa.Halt(),
	}))
	p := must(sys.Spawn(dom, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, msg, prt}}))
	busy := busyCycles(sys, p)
	if n := sys.Stats().Dispatches; n != 1 {
		fail("conditional operations parked the process: %d dispatches", n)
	}
	for i, want := range []uint32{1, 0, 1, 0} {
		if got := must(sys.Table.ReadDWord(msg, uint32(4*i))); got != want {
			fail("conditional flag %d = %d, want %d", i, got, want)
		}
	}
	overhead := vtime.CostDispatch + 4*vtime.CostMove + vtime.CostALU
	return float64(busy-overhead) / 2
}
