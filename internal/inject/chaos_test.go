package inject

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/obj"
)

// corpusSeeds reads testdata/chaos_corpus.txt. A missing or malformed
// corpus is a hard failure: silently running zero seeds would let the
// soak rot into a no-op.
func corpusSeeds(t testing.TB) []int64 {
	t.Helper()
	const path = "testdata/chaos_corpus.txt"
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("chaos corpus unreadable (checked into the repo at internal/inject/%s): %v", path, err)
	}
	defer f.Close()
	var seeds []int64
	seen := make(map[int64]int)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("%s:%d: malformed seed %q: %v", path, line, s, err)
		}
		if prev, dup := seen[v]; dup {
			t.Fatalf("%s:%d: duplicate seed %d (first on line %d)", path, line, v, prev)
		}
		seen[v] = line
		seeds = append(seeds, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(seeds) == 0 {
		t.Fatalf("%s: no seeds — the chaos soak would be a no-op", path)
	}
	return seeds
}

// corpusRuns keeps each corpus seed's protocol run for the tests that read
// it: a run is a pure function of its seed (TestChaosReplayIdentical, which
// runs its own two).
var corpusRuns = map[int64]*SeedResult{}

func runCorpusSeed(t *testing.T, seed int64) *SeedResult {
	t.Helper()
	if res, ok := corpusRuns[seed]; ok {
		return res
	}
	res, err := RunSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	corpusRuns[seed] = res
	return res
}

// TestChaosCorpus is the acceptance soak: every corpus seed must pass the
// full two-corner protocol.
func TestChaosCorpus(t *testing.T) {
	for _, seed := range corpusSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res := runCorpusSeed(t, seed)
			if len(res.Fired) == 0 {
				t.Errorf("no injection events fired; plan horizon %d missed the workload entirely", res.Plan.Horizon)
			}
			if !res.Ok() {
				var b strings.Builder
				res.Report(&b)
				t.Fatalf("acceptance failed:\n%s", b.String())
			}
		})
	}
}

// TestChaosCorpusDestroysMidMark: the destroy-mid-mark kind acts. The
// event steps the collector into its mark phase (the daemon, below every
// worker's priority, used never to get there inside a plan's horizon: over
// seeds 1–300 all 323 such events were skipped), and the corpus holds a seed
// for each victim the kind prefers, which destroys it with the collector
// marking and still meets every criterion: the victim's group is no witness
// of either verdict.
func TestChaosCorpusDestroysMidMark(t *testing.T) {
	want := map[string]int64{"destroyed terminated process mid-mark": 0, "destroyed generic object mid-mark": 0}
	for _, seed := range corpusSeeds(t) {
		res := runCorpusSeed(t, seed)
		for _, r := range res.Fired {
			if _, ok := want[r.Outcome]; ok && r.Kind == KindDestroyMidMark && res.Ok() {
				want[r.Outcome] = seed
			}
		}
	}
	for outcome, seed := range want {
		if seed == 0 {
			t.Errorf("no corpus seed %q and passed", outcome)
		}
	}
}

// TestChaosReplayIdentical reruns one seed end to end and demands the
// canonical fingerprint — trace stream included — reproduce byte for byte.
func TestChaosReplayIdentical(t *testing.T) {
	seed := corpusSeeds(t)[0]
	a, err := RunSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("seed %d not replayable: %s", seed, diffLine(a.Fingerprint, b.Fingerprint))
	}
}

// TestChaosCorpusWitnesses: the one scope both verdicts judge is never
// vacuous. On every corpus seed it is non-empty and holds every bystander
// no injection acted on: bystanders belong to no group, so only a victim
// leaves the list.
func TestChaosCorpusWitnesses(t *testing.T) {
	for _, seed := range corpusSeeds(t) {
		res := runCorpusSeed(t, seed)
		if len(res.Witnesses) == 0 {
			t.Errorf("seed %d: no witnesses; both verdicts were vacuous", seed)
		}
		listed := make(map[obj.Index]bool)
		for _, idx := range res.Witnesses {
			listed[idx] = true
		}
		victims := make(map[obj.Index]bool)
		for _, r := range res.Fired {
			victims[r.Victim] = true
		}
		w, err := BuildWorld(seed, Corners[0], false) // the bystanders of every world of the seed
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range w.Bystanders {
			if !listed[b.Index] && !victims[b.Index] {
				t.Errorf("seed %d: bystander %d is no witness though no injection acted on it", seed, b.Index)
			}
		}
	}
}

// FuzzRunSeed opens the corpus: a generated seed must meet every acceptance
// criterion too, not only the curated ones. The corpus seeds are its seed
// inputs, so plain `go test` replays them.
func FuzzRunSeed(f *testing.F) {
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		res, ok := corpusRuns[seed]
		if !ok {
			var err error
			if res, err = RunSeed(seed); err != nil {
				t.Fatal(err)
			}
		}
		if !res.Ok() {
			var b strings.Builder
			res.Report(&b)
			t.Fatalf("acceptance failed:\n%s", b.String())
		}
	})
}

// TestConfinementDetectsCorruption is the negative control: corrupt one
// byte of a worker's result object and one of a bystander behind the
// checker's back and demand CheckConfinement name both — and, once the
// worker's declared group leaves the witness list, the bystander alone.
// Without this, a vacuously passing checker (no witnesses, an over-wide
// group) would sail through the corpus.
func TestConfinementDetectsCorruption(t *testing.T) {
	seed := corpusSeeds(t)[0]
	var worlds [2]*World
	for i := range worlds {
		w, err := BuildWorld(seed, Corners[0], false)
		if err != nil {
			t.Fatal(err)
		}
		if err := RunWorld(w); err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
	}
	ref, w := worlds[0], worlds[1]
	ws := witnesses(ref, w)
	aud := audit.New(w.IM.System).WithGC(w.IM.Collector)
	if vs := aud.CheckConfinement(ref.IM.Table, ws); len(vs) != 0 {
		t.Fatalf("pristine run reported confinement violations: %v", vs[0])
	}
	// The first worker is a compute worker; its result object is the last
	// member of its group.
	group := w.Group(w.Workers[0].Index)
	result, by := group[len(group)-1], w.Bystanders[0].Index
	for _, idx := range []obj.Index{result, by} {
		ad, ok := w.IM.Table.SystemAD(idx)
		if !ok {
			t.Fatalf("object %d is not live", idx)
		}
		old, f := w.IM.Table.ReadDWord(ad, 4)
		if f != nil {
			t.Fatal(f)
		}
		if f := w.IM.Table.WriteDWord(ad, 4, old^0xdeadbeef); f != nil {
			t.Fatal(f)
		}
	}
	named := func(vs []audit.Violation) []obj.Index {
		var out []obj.Index
		for _, v := range vs {
			out = append(out, v.Obj)
		}
		return out
	}
	// Witnesses are in index order, and the bystanders are built first.
	if got := named(aud.CheckConfinement(ref.IM.Table, ws)); fmt.Sprint(got) != fmt.Sprint([]obj.Index{by, result}) {
		t.Fatalf("flipped result %d and bystander %d; violations name %v", result, by, got)
	}
	inGroup := make(map[obj.Index]bool)
	for _, m := range group {
		inGroup[m] = true
	}
	var scoped []obj.Index
	for _, idx := range ws {
		if !inGroup[idx] {
			scoped = append(scoped, idx)
		}
	}
	if got := named(aud.CheckConfinement(ref.IM.Table, scoped)); fmt.Sprint(got) != fmt.Sprint([]obj.Index{by}) {
		t.Fatalf("with worker 0's group declared, violations name %v, want only bystander %d", got, by)
	}
}
