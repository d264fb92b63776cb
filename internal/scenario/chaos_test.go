package scenario

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/obj"
)

// chaosCorpusSeeds reads the shared injection corpus
// (internal/inject/testdata/chaos_corpus.txt) so the scenario engine
// replays the exact seeds the microbenchmark harness has vetted. A
// missing corpus is a hard failure, not a skip.
func chaosCorpusSeeds(t *testing.T, max int) []int64 {
	t.Helper()
	const path = "../inject/testdata/chaos_corpus.txt"
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("chaos corpus unreadable: %v", err)
	}
	defer f.Close()
	var seeds []int64
	sc := bufio.NewScanner(f)
	for sc.Scan() && len(seeds) < max {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("chaos corpus line %q: %v", line, err)
		}
		seeds = append(seeds, n)
	}
	if len(seeds) == 0 {
		t.Fatalf("chaos corpus is empty")
	}
	return seeds
}

// TestScenarioChaosSLO replays injection corpus seeds as a scenario axis:
// the same open-loop population runs once fault-free and once with the
// seed's injection plan armed, and the injected run must degrade, not
// break —
//
//   - it terminates (censoring bounds the tail instead of hanging);
//   - accounting stays closed: completed + censored == issued;
//   - the percentile report stays well-formed under degradation;
//   - the invariant auditor and level checker find nothing;
//   - damage confinement holds against the fault-free reference: every
//     witness is byte-identical in both runs.
//
// The witnesses are the session objects, which the engine preallocates
// before Run at the same indices in both runs, whose completion counts
// match the reference's and which neither run censored: a faulted
// server's lost requests show up as missing increments, and nothing else
// writes a session object.
func TestScenarioChaosSLO(t *testing.T) {
	// The run must outlast the injection plan's instruction instants or
	// nothing fires, so this test does not shrink under -short. Each
	// seed runs in tens of milliseconds.
	const n = 1_000
	for _, seed := range chaosCorpusSeeds(t, 3) {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			// Fault-free reference: same scenario seed, no injector.
			ref, rres := runPreset(t, "chaos", n, 42, func(c *Config) {
				c.InjectEvents = 0
			})

			inj, res := runPreset(t, "chaos", n, 42, func(c *Config) {
				c.InjectSeed = seed
			})

			// Degraded but bounded: the run returned, the accounting is
			// closed, and the SLO report is still well-formed.
			if res.Completed+res.Censored != res.Issued {
				t.Fatalf("accounting leak: issued %d, completed %d + censored %d",
					res.Issued, res.Completed, res.Censored)
			}
			if res.Completed == 0 {
				t.Fatalf("nothing completed under injection: not degradation, collapse")
			}
			o := res.Overall
			if o.Samples != res.Issued {
				t.Fatalf("latency samples %d != issued %d", o.Samples, res.Issued)
			}
			if o.P50Cycles > o.P99Cycles || o.P99Cycles > o.P999Cycles || o.P999Cycles > o.MaxCycles {
				t.Fatalf("percentiles not monotone under injection: %+v", o)
			}
			if res.InjectFired == 0 {
				t.Fatalf("plan of %d events never fired within the run", res.InjectPlanned)
			}

			// Invariant audit over the injected world.
			aud := audit.New(inj.IM.System)
			for _, v := range aud.CheckAll() {
				t.Errorf("audit: %v", v)
			}
			for _, v := range inj.IM.CheckLevels() {
				t.Errorf("levels: %v", v)
			}

			var witnesses []obj.Index
			for i := range inj.Sessions {
				si, sr := &inj.Sessions[i], &ref.Sessions[i]
				if si.Obj.Index != sr.Obj.Index {
					t.Fatalf("session %d allocated at different indices (%d vs %d): preallocation broken",
						i, si.Obj.Index, sr.Obj.Index)
				}
				if si.Completed == sr.Completed && si.Censored == 0 && sr.Censored == 0 {
					witnesses = append(witnesses, si.Obj.Index)
				}
			}
			if len(witnesses) == 0 {
				t.Fatalf("no session matched the reference; nothing would be checked")
			}
			for _, v := range aud.CheckConfinement(ref.IM.Table, witnesses) {
				t.Errorf("confinement: %v", v)
			}
			diverged := len(inj.Sessions) - len(witnesses)
			t.Logf("seed %d: fired %d/%d, completed %d censored %d, %d sessions diverged, ref completed %d",
				seed, res.InjectFired, res.InjectPlanned, res.Completed, res.Censored,
				diverged, rres.Completed)
		})
	}
}
