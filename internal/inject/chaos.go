package inject

// chaos.go is the damage-confinement soak harness: for one seed it runs
// the chaos workload (workload.go) under the seed's injection plan in both
// {nocache, cache} corners, plus one fault-free reference run, and then
// judges the acceptance criteria of the paper's §7.1/§7.3 story:
//
//  1. every injected run terminates cleanly (no system-level fault, no
//     drain timeout);
//  2. every faulted process is observed parked at its fault port (or
//     terminated, when an injected flood had already filled the port —
//     the documented full-port arm of fault delivery);
//  3. the invariant auditor finds nothing, and audit.CheckConfinement
//     proves every witness (witnesses: what the world held before it ran,
//     outside the declared group of every faulted worker and injection
//     victim) byte-identical to the reference run's;
//  4. both corners produce the same fingerprint — trace stream, stats,
//     worker states and fired-event log — byte for byte;
//  5. the confinement verdict of 3, re-derived over the same witnesses
//     from the two sealed audit ledgers with no live system (DESIGN.md
//     §12.5), is the same verdict.

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
)

const (
	// chaosSteps × chaosStepQuantum is the driven phase; the odd quantum
	// exercises step boundaries at non-multiples of the dispatch slice.
	chaosSteps       = 260
	chaosStepQuantum = vtime.Cycles(2_500)
	// chaosDrainBudget bounds the drain to worker quiescence; exhausting
	// it is a "did not terminate cleanly" failure.
	chaosDrainBudget = vtime.Cycles(40_000_000)
)

// RunWorld drives a built world to worker quiescence: a fixed cadence of
// short steps (identical in every corner) followed by a bounded drain.
// Workers that faulted stay parked and count as quiescent — nobody
// services the chaos fault port, by design.
func RunWorld(w *World) error {
	for i := 0; i < chaosSteps; i++ {
		if _, f := w.IM.Step(chaosStepQuantum); f != nil {
			return fmt.Errorf("step %d: system-level fault: %v", i, f)
		}
	}
	quiet := func() bool {
		for _, p := range w.Workers {
			st, f := w.IM.Procs.StateOf(p)
			if f != nil {
				continue // destroyed by an injection: nothing left to run
			}
			switch st {
			case process.StateBlocked, process.StateFaulted,
				process.StateStopped, process.StateTerminated:
			default:
				return false
			}
		}
		return true
	}
	if _, f := w.IM.RunUntil(quiet, chaosDrainBudget); f != nil {
		return fmt.Errorf("drain: workload did not quiesce: %v", f)
	}
	return nil
}

// Fingerprint renders everything observable about a finished run that must
// be identical across corners: virtual time, machine stats, per-CPU
// clocks, worker fates, the fired-event log, the sealed audit-ledger
// commitment (root, segment and drop counts), and the complete trace
// stream. Trace-compiler counters are deliberately absent — they describe
// how the run was computed, not what it computed.
func Fingerprint(w *World) string {
	var b bytes.Buffer
	st := w.IM.Stats()
	fmt.Fprintf(&b, "now=%d cycles=%d dispatches=%d preemptions=%d faults=%d instructions=%d\n",
		w.IM.Now(), w.IM.TotalCycles(), st.Dispatches, st.Preemptions, st.FaultsSent, st.Instructions)
	for _, c := range w.IM.CPUs {
		fmt.Fprintf(&b, "cpu%d clock=%d instr=%d online=%v\n",
			c.ID, c.Clock.Now(), c.Instructions, c.Online())
	}
	for i, p := range w.Workers {
		wst, f := w.IM.Procs.StateOf(p)
		if f != nil {
			fmt.Fprintf(&b, "worker%d idx=%d destroyed\n", i, p.Index)
			continue
		}
		code, _ := w.IM.Procs.FaultCode(p)
		fmt.Fprintf(&b, "worker%d idx=%d state=%v fault=%v\n", i, p.Index, wst, code)
	}
	if w.Inj != nil {
		w.Inj.Report(&b)
	}
	if w.IM.Ledger != nil {
		// Sealing here is safe: the run is over, and Close is idempotent.
		// The root commits the entire event stream, so corners agreeing
		// on this line have byte-identical ledgers.
		w.IM.Ledger.Close()
		fmt.Fprintf(&b, "ledger root=%s segments=%d recorded=%d dropped=%d\n",
			w.IM.Ledger.RootHex(), w.IM.Ledger.Segments(),
			w.IM.Ledger.Recorded(), w.IM.Ledger.Dropped())
	}
	_ = w.IM.TraceLog.Dump(&b)
	return b.String()
}

// faultPortResidents collects the object indices deposited as messages at
// the world's fault port (faulted processes and any flood fillers).
func faultPortResidents(w *World) (map[obj.Index]bool, error) {
	st, f := w.IM.Ports.Inspect(w.FaultPort)
	if f != nil {
		return nil, fmt.Errorf("inspect fault port: %v", f)
	}
	out := make(map[obj.Index]bool)
	for _, s := range st.Slots {
		if s.Occupied {
			out[s.Msg.Index] = true
		}
	}
	return out, nil
}

// checkWorld judges one injected world against criteria 1–3, given the
// final table of a fault-free reference run of the same seed and the
// witnesses of the run. It returns the human-readable problems of
// criteria 1 and 2 and the live confinement verdict, both empty on
// success.
func checkWorld(w *World, ref *obj.Table, witnesses []obj.Index) (problems []string, confinement []audit.Violation) {
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// 1. Invariant audit and level discipline over the injected run.
	aud := audit.New(w.IM.System).WithGC(w.IM.Collector)
	for _, v := range aud.CheckAll() {
		bad("audit: %v", v)
	}
	for _, v := range w.IM.CheckLevels() {
		bad("levels: %v", v)
	}

	// 2. Every faulted worker must be observable at the fault port; a
	// worker that terminated with a recorded fault code hit the full-port
	// arm, which is only legitimate once a flood targeted the fault port
	// or enough peers faulted first to fill it.
	parked, err := faultPortResidents(w)
	if err != nil {
		bad("%v", err)
		parked = map[obj.Index]bool{}
	}
	for i, p := range w.Workers {
		st, f := w.IM.Procs.StateOf(p)
		if f != nil {
			continue // destroyed mid-mark; its group is no witness
		}
		code, _ := w.IM.Procs.FaultCode(p)
		switch st {
		case process.StateFaulted:
			if code == obj.FaultNone {
				bad("worker%d (idx %d) faulted with no recorded fault code", i, p.Index)
			}
			if !parked[p.Index] {
				bad("worker%d (idx %d) is faulted but not parked at the fault port", i, p.Index)
			}
		case process.StateTerminated:
			// Fine either way: clean completion, or fault-port-full
			// termination (code != FaultNone).
		case process.StateBlocked, process.StateStopped:
			// Legitimate only as injection fallout (a peer faulted
			// mid-rally); confinement decides whether the damage spread.
		default:
			bad("worker%d (idx %d) ended in state %v", i, p.Index, st)
		}
	}

	// 3. Damage confinement: every witness byte-identical to the reference.
	return problems, aud.CheckConfinement(ref, witnesses)
}

// fate is what became of worker p: destroyed by an injection, or faulted
// (parked at the fault port, or terminated by a full one).
func (w *World) fate(p obj.AD) (destroyed, faulted bool) {
	st, f := w.IM.Procs.StateOf(p)
	if f != nil {
		return true, false
	}
	code, _ := w.IM.Procs.FaultCode(p)
	return false, st == process.StateFaulted || code != obj.FaultNone
}

// witnesses is the one confinement scope both verdicts judge (criteria 3
// and 5): every object of a comparable type the world held before it ran
// (World.built) and the fault-free reference ref still holds, same
// generation, at its end — less the declared group of every worker of w
// that faulted or was destroyed and of every victim an injection acted
// on. A swap-out's victim stays: eviction must be transparent. Objects
// created once the run starts are never witnesses: after the runs diverge
// one index may name different objects in the two tables.
func witnesses(ref, w *World) []obj.Index {
	drop := make(map[obj.Index]bool)
	dropGroup := func(idx obj.Index) {
		drop[idx] = true
		for _, m := range w.Group(idx) {
			drop[m] = true
		}
	}
	for _, p := range w.Workers {
		if destroyed, faulted := w.fate(p); destroyed || faulted {
			dropGroup(p.Index)
		}
	}
	if w.Inj != nil {
		for _, r := range w.Inj.Fired() {
			if r.Kind != KindSwapOut {
				dropGroup(r.Victim)
			}
		}
	}
	var out []obj.Index
	for _, ad := range ref.built {
		if d := ref.IM.Table.DescriptorAt(ad.Index); d != nil && d.Gen == ad.Gen && !drop[ad.Index] {
			out = append(out, ad.Index)
		}
	}
	return out
}

// SeedResult is the outcome of one full seed acceptance run.
type SeedResult struct {
	Seed        int64
	Plan        Plan
	Fingerprint string      // canonical (nocache) injected fingerprint
	Fired       []Fired     // fired-event log of the canonical corner
	Faulted     int         // workers that ended faulted or fault-terminated
	Witnesses   []obj.Index // what both confinement verdicts judged, canonical corner
	Problems    []string
}

// Ok reports whether the seed met every acceptance criterion.
func (r *SeedResult) Ok() bool { return len(r.Problems) == 0 }

// RunSeed executes the complete acceptance protocol for one seed: a
// fault-free reference run, then the two injected corners, fingerprint
// cross-comparison, and per-corner §7 checks. Building or driving errors
// are returned as errors; criterion failures land in Problems.
func RunSeed(seed int64) (*SeedResult, error) {
	res := &SeedResult{Seed: seed}

	refWorld, err := BuildWorld(seed, Corners[0], false)
	if err != nil {
		return nil, fmt.Errorf("seed %d: build reference: %v", seed, err)
	}
	if err := RunWorld(refWorld); err != nil {
		return nil, fmt.Errorf("seed %d: reference run: %v", seed, err)
	}
	if vs := audit.New(refWorld.IM.System).WithGC(refWorld.IM.Collector).CheckAll(); len(vs) > 0 {
		return nil, fmt.Errorf("seed %d: reference run failed its own audit: %v", seed, vs[0])
	}
	refRep, err := refWorld.IM.SealLedger()
	if err != nil {
		return nil, fmt.Errorf("seed %d: reference %v", seed, err)
	}

	for ci, corner := range Corners {
		w, err := BuildWorld(seed, corner, true)
		if err != nil {
			return nil, fmt.Errorf("seed %d: build %v: %v", seed, corner, err)
		}
		if err := RunWorld(w); err != nil {
			res.Problems = append(res.Problems,
				fmt.Sprintf("%v: %v", corner, err))
			continue
		}
		ws := witnesses(refWorld, w)
		fp := Fingerprint(w)
		if ci == 0 {
			res.Plan = w.Inj.Plan()
			res.Fingerprint = fp
			res.Fired = w.Inj.Fired()
			res.Witnesses = ws
			for _, p := range w.Workers {
				if _, faulted := w.fate(p); faulted {
					res.Faulted++
				}
			}
		} else if fp != res.Fingerprint {
			res.Problems = append(res.Problems,
				fmt.Sprintf("%v: fingerprint diverges from %v at %s",
					corner, Corners[0], diffLine(res.Fingerprint, fp)))
		}
		problems, live := checkWorld(w, refWorld.IM.Table, ws)
		for _, p := range problems {
			res.Problems = append(res.Problems, fmt.Sprintf("%v: %s", corner, p))
		}
		for _, v := range live {
			res.Problems = append(res.Problems, fmt.Sprintf("%v: confinement: %v", corner, v))
		}
		if rep, err := w.IM.SealLedger(); err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("%v: %v", corner, err))
		} else if vs := audit.CheckConfinementFromLedger(refRep.Events, rep.Events, ws); (len(vs) == 0) != (len(live) == 0) {
			res.Problems = append(res.Problems, fmt.Sprintf("%v: ledger verdict (%d violations: %v) disagrees with the live one (%d violations)",
				corner, len(vs), vs, len(live)))
		}
	}
	return res, nil
}

// diffLine locates the first differing line of two fingerprints, for
// actionable failure messages.
func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}

// Report writes a human-readable acceptance report for the seed.
func (r *SeedResult) Report(w io.Writer) {
	fmt.Fprintf(w, "seed %d: %d planned events, %d fired, %d workers faulted\n",
		r.Seed, len(r.Plan.Events), len(r.Fired), r.Faulted)
	kinds := make(map[Kind]int)
	for _, f := range r.Fired {
		kinds[f.Kind]++
	}
	var ks []Kind
	for k := range kinds {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	for _, k := range ks {
		fmt.Fprintf(w, "  %-18s ×%d\n", k, kinds[k])
	}
	for _, f := range r.Fired {
		fmt.Fprintf(w, "  %v\n", f)
	}
	if r.Ok() {
		fmt.Fprintf(w, "  all corners identical, audit and confinement clean over %d witnesses, ledger verdict agrees\n", len(r.Witnesses))
		return
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
}
