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
func corpusSeeds(t *testing.T) []int64 {
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
// marking and still meets every criterion: RunSeed prunes the victim from
// the reference (cloneSnapshot) and the ledger verdict carves it out.
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

// TestConfinementDetectsCorruption is the negative control: corrupt one
// byte of a bystander object behind the checker's back and demand
// CheckConfinement notice. Without this, a vacuously-passing checker
// (empty snapshot, over-wide exclusion) would sail through the corpus.
func TestConfinementDetectsCorruption(t *testing.T) {
	seed := corpusSeeds(t)[0]
	w, err := BuildWorld(seed, Corners[0], false)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunWorld(w); err != nil {
		t.Fatal(err)
	}
	snap := audit.SnapshotReachable(w.IM.Table)
	if len(snap.Images) == 0 {
		t.Fatal("reference snapshot is empty; nothing would ever be checked")
	}
	by := w.Bystanders[0]
	if _, ok := snap.Images[by.Index]; !ok {
		t.Fatalf("bystander %d not in the reachable snapshot", by.Index)
	}
	aud := audit.New(w.IM.System).WithGC(w.IM.Collector)
	if vs := aud.CheckConfinement(snap, nil); len(vs) != 0 {
		t.Fatalf("pristine run reported confinement violations: %v", vs[0])
	}
	old, f := w.IM.Table.ReadDWord(by, 4)
	if f != nil {
		t.Fatal(f)
	}
	if f := w.IM.Table.WriteDWord(by, 4, old^0xdeadbeef); f != nil {
		t.Fatal(f)
	}
	vs := aud.CheckConfinement(snap, nil)
	if len(vs) == 0 {
		t.Fatal("flipped a bystander byte and CheckConfinement saw nothing")
	}
	found := false
	for _, v := range vs {
		if v.Obj == by.Index {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations name other objects, not the corrupted bystander %d: %v", by.Index, vs)
	}
	// The corruption must vanish once the bystander is inside a declared
	// blast radius — exclusion is reachability-based.
	if vs := aud.CheckConfinement(snap, []obj.Index{by.Index}); len(vs) != 0 {
		t.Fatalf("excluding the corrupted object did not silence the checker: %v", vs[0])
	}
}
