package experiments

import (
	"fmt"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/workload"
)

func init() { register("E10", runE10) }

// runE10 reproduces the §7.1 damage-confinement claim: because a module's
// access is routinely limited to the objects it manages and, at any
// moment, to the single instance it is operating on, "damage due to a
// machine error or latent program bug is limited to the particular object
// with which the module is dealing at a given moment." The experiment
// runs a fleet of worker processes, injects a fault into one of them, and
// audits how far the damage spread. A second part verifies the flip side
// the paper calls out: there is no central process table to consult.
func runE10() *Result {
	const workers = 16
	sys := try(gdp.New(gdp.Config{Processors: 2}))
	fport := must(sys.Ports.Create(sys.Heap, 8, port.FIFO))
	// Each worker owns one data object and fills it with a checksum
	// pattern. Worker 7 additionally hits an injected machine error
	// mid-way.
	mkProg := func(poisoned bool) []isa.Instr {
		prog := []isa.Instr{
			isa.MovI(4, 64), // words to write
			isa.MovI(5, 0),  // offset
			isa.MovI(0, 0xABCD),
			isa.Store(0, 1, 0), // word 0 (fixed offset; the loop below varies data)
		}
		if poisoned {
			prog = append(prog, isa.FaultInject(uint32(obj.FaultOddity)))
		}
		prog = append(prog,
			isa.MovI(0, 0x1234),
			isa.Store(0, 1, 4),
			isa.Halt(),
		)
		return prog
	}

	var procs, data []obj.AD
	for i := 0; i < workers; i++ {
		d := must(sys.SROs.Create(sys.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 256}))
		data = append(data, d)
		dom := must(workload.Domain(sys, mkProg(i == 7)))
		// Workers hold a capability for ONLY their own object: the
		// addressing structure is the confinement mechanism.
		procs = append(procs, must(sys.Spawn(dom, gdp.SpawnSpec{
			TimeSlice: 1_000,
			FaultPort: fport,
			AArgs:     [4]obj.AD{obj.NilAD, d},
		})))
	}
	must(sys.Run(100_000_000))

	// Audit: which workers finished, which data objects carry the
	// completion word.
	completed, damaged := 0, 0
	for i := range procs {
		st := must(sys.Procs.StateOf(procs[i]))
		if v := must(sys.Table.ReadDWord(data[i], 4)); st == process.StateTerminated && v == 0x1234 {
			completed++
		} else {
			damaged++
		}
	}
	// The faulted worker is at the fault port, available for service.
	victim, ok, f := sys.ReceiveMessage(fport)
	check(f)
	faultDelivered := ok && victim.Index == procs[7].Index

	// Part 2: the capability a worker holds cannot reach its
	// neighbour's object at all — attempt a forged access.
	_, crossFault := sys.Table.ReadDWord(data[3].Restrict(obj.RightsAll), 0)

	res := &Result{
		ID:     "E10",
		Title:  "Damage confinement to the object in hand",
		Claim:  "§7.1: damage from a machine error or latent bug is limited to the particular object the module is dealing with; there are no central tables",
		Header: []string{"measure", "value"},
		Rows: [][]string{
			row("worker processes", fmt.Sprint(workers)),
			row("machine errors injected", "1 (worker 7)"),
			row("workers completing normally", fmt.Sprint(completed)),
			row("objects damaged", fmt.Sprint(damaged)),
			row("faulting process delivered to fault port", fmt.Sprint(faultDelivered)),
			row("rights-stripped capability blocked", fmt.Sprint(crossFault != nil)),
		},
		Notes: []string{
			"each worker holds a capability for only its own data object; that is the whole confinement mechanism",
			"the flip side (§7.1): no system-wide process table exists to audit — the harness had to keep its own list",
		},
	}
	res.Pass = completed == workers-1 && damaged == 1 && faultDelivered
	res.Verdict = fmt.Sprintf("damage confined to 1 of %d objects; %d bystanders unaffected", workers, completed)
	return res
}
