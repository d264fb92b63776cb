// Package experiments implements the reproduction harness: one experiment
// per quantitative or behavioural claim in the paper (the paper has no
// numbered tables or evaluation figures — it is a 1981 systems-description
// paper — so DESIGN.md §4 assigns each claim an experiment id E1..E14).
//
// Every experiment builds its own system, runs its workload, and returns a
// Result whose rows are what cmd/imaxbench prints and EXPERIMENTS.md
// records. Pass/fail encodes the *shape* the paper claims (who wins, by
// roughly what factor), never absolute wall-clock numbers.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/gdp"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
)

// Result is one experiment's reproduction record.
type Result struct {
	ID    string // E1..E14
	Title string
	// Claim quotes or paraphrases the paper's statement.
	Claim string
	// Header and Rows form the measured table.
	Header []string
	Rows   [][]string
	// Verdict summarises measured-vs-claim in one line.
	Verdict string
	// Pass reports whether the claim's shape held.
	Pass bool
	// Notes carry caveats (substitutions, calibration).
	Notes []string
}

// Runner produces one experiment result. A fault or error the experiment
// cannot go on past ends it through must, try, check or fail, which unwind
// to Run.
type Runner func() *Result

type abort struct{ err error }

// must unwraps a result the experiment cannot go on without.
func must[T any](v T, f *obj.Fault) T {
	check(f)
	return v
}

// try is must for the packages that report a plain error.
func try[T any](v T, err error) T {
	checkErr(err)
	return v
}

func checkErr(err error) {
	if err != nil {
		panic(abort{err})
	}
}

// check ends the experiment on a fault.
func check(f *obj.Fault) {
	if f != nil {
		panic(abort{f})
	}
}

// fail ends the experiment with an error of its own.
func fail(format string, args ...any) { panic(abort{fmt.Errorf(format, args...)}) }

// busyCycles runs the system until it is idle and reports the cycles
// processor 0 spent working. Every process named must have terminated.
func busyCycles(sys *gdp.System, procs ...obj.AD) vtime.Cycles {
	must(sys.Run(0))
	for _, p := range procs {
		if st := must(sys.Procs.StateOf(p)); st != process.StateTerminated {
			fail("process %v ended %v with fault code %v", p, st, must(sys.Procs.FaultCode(p)))
		}
	}
	return sys.CPUs[0].Clock.Now() - sys.CPUs[0].IdleCycles
}

var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs lists registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// E2 < E10 needs numeric ordering.
		return idNum(out[i]) < idNum(out[j])
	})
	return out
}

func idNum(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// Run executes one experiment by id.
func Run(id string) (res *Result, err error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q", id)
	}
	defer func() {
		if p := recover(); p != nil {
			a, ok := p.(abort)
			if !ok {
				panic(p)
			}
			res, err = nil, a.err
		}
	}()
	return r(), nil
}

// row formats a table row.
func row(cols ...any) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		switch v := c.(type) {
		case string:
			out[i] = v
		case float64:
			out[i] = fmt.Sprintf("%.2f", v)
		default:
			out[i] = fmt.Sprint(c)
		}
	}
	return out
}
