package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

func readDeclared(t *testing.T) (declared, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d, raw
}

// TestBenchmarkJSON holds BENCHMARK.json to the runner's own tables
// (`go run ./benchmark -describe` regenerates it) and to the driver's
// limits on names, units and counts.
func TestBenchmarkJSON(t *testing.T) {
	d, raw := readDeclared(t)
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(want) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -describe`")
	}
	if len(d.Workloads) != 6 || len(d.EndToEnd) < 1 || len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(d.Workloads), len(d.EndToEnd), len(d.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		seen[n] = true
	}
	for _, w := range d.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range d.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range d.PerLayer {
		check(m.Name, m.Unit)
	}
}

// TestEveryMetricEmitted runs every workload at 1/100 scale with two
// repetitions and checks that each emits exactly the declared metrics,
// under both of the driver's trace settings, with no failed op.
func TestEveryMetricEmitted(t *testing.T) {
	d, _ := readDeclared(t)
	rp, err := runAll(&options{seed: defaultSeed, scale: 0.01, reps: 2, trace: 1, batches: 1}, newSpans())
	if err != nil {
		t.Fatal(err)
	}
	if rp.Default {
		t.Error("a 1/100-scale run calls itself the default benchmark")
	}
	if len(rp.Workloads) != len(d.Workloads) {
		t.Fatalf("ran %d workloads, %d declared", len(rp.Workloads), len(d.Workloads))
	}
	for i, w := range rp.Workloads {
		if w.Name != d.Workloads[i].Name {
			t.Errorf("workload %d is %q, declared %q", i, w.Name, d.Workloads[i].Name)
		}
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%v, failed %d of %d: %s", w.Name, w.Correct, w.Failed, w.Attempted, w.Error)
		}
		for trace, want := range [][]string{namesOf(d.EndToEnd), namesOf(d.PerLayer)} {
			line, err := contractLine(w, trace)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct           bool
				Attempted, Failed uint64
				Metrics           map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", w.Name, trace, len(got.Metrics), len(want))
			}
			for _, n := range want {
				m, ok := got.Metrics[n]
				if !ok || m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("%s trace %d: metric %s missing or not a number", w.Name, trace, n)
				} else if trace == 0 && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.Name, n, *m.Value)
				}
			}
		}
		if _, ok := w.PerLayer["trace.overhead_ratio"]; !ok {
			t.Errorf("%s: no trace.overhead_ratio", w.Name)
		}
	}
}

func namesOf(ms []declaredMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

// ---- the profile decoder, fed a synthetic profile ----

func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbInt(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, p []byte) []byte {
	return append(pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(p))), p...)
}

// synthProfile encodes stacks (leaf first) as a profile.proto message with
// one function per location, packed sample fields and two values per
// sample, the way runtime/pprof writes CPU profiles.
func synthProfile(stacks map[string]uint64) []byte {
	strs := []string{""}
	ids := map[string]uint64{}
	var out []byte
	for stack, count := range stacks {
		var locs []byte
		for _, fn := range strings.Split(stack, ";") {
			if ids[fn] == 0 {
				strs = append(strs, fn)
				ids[fn] = uint64(len(strs) - 1) // string index, function id and location id alike
			}
			locs = pbVarint(locs, ids[fn])
		}
		s := pbBytes(nil, 1, locs)
		s = pbBytes(s, 2, pbVarint(pbVarint(nil, count), count*10_000_000))
		out = pbBytes(out, 2, s)
	}
	for _, id := range ids {
		out = pbBytes(out, 4, pbBytes(pbInt(nil, 1, id), 4, pbInt(nil, 1, id)))
		out = pbBytes(out, 5, pbInt(pbInt(nil, 1, id), 2, id))
	}
	for _, s := range strs {
		out = pbBytes(out, 6, []byte(s))
	}
	return out
}

func TestProfileAttribution(t *testing.T) {
	const (
		resolve = "repro/internal/obj.(*Table).Resolve"
		read    = "repro/internal/obj.(*Table).ReadDWord"
		window  = "repro/internal/mem.(*Memory).Window"
		recv    = "repro/internal/port.(*Manager).Receive"
		step    = "repro/internal/gdp.(*System).Step"
		run     = "repro/internal/scenario.(*Engine).Run"
		closure = "repro/internal/gdp.compileTrace.func1"
		boot    = "repro/internal/core.Boot"
	)
	samples, err := decodeProfileProto(synthProfile(map[string]uint64{
		strings.Join([]string{window, resolve, read, recv, step, run, "main.main"}, ";"): 40,
		strings.Join([]string{resolve, read, recv, step, run, "main.main"}, ";"):         30, // obj twice on one stack
		strings.Join([]string{closure, step, "main.main"}, ";"):                          20,
		"runtime.mallocgc;" + boot + ";main.main":                                        6,
		"crypto/sha256.block;repro/internal/ledger.(*Sink).Record;main.main":             3,
		"slices.SortFunc[go.shape.[]repro/internal/obj.AD];main.main":                    1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	m, total := attribute(samples)
	if total != 100 {
		t.Fatalf("%d samples decoded, want 100", total)
	}
	sum := 0.0
	for _, l := range shareLayers {
		sum += m["cpu_share."+l]
	}
	if math.Abs(sum-1) > 0.001 {
		t.Errorf("cpu_share.* sums to %g", sum)
	}
	for name, want := range map[string]float64{
		"cpu_share.mem": 0.40, "cpu_share.obj": 0.30, "cpu_share.gdp": 0.20, "cpu_share.port": 0,
		"cpu_share.go-runtime": 0.06, "cpu_share.other": 0.04, "cpu_share.ledger": 0,
		"cpu_incl.obj": 0.70, "cpu_incl.port": 0.70, "cpu_incl.mem": 0.40,
		"cpu_incl.scenario": 0.70, "cpu_incl.ledger": 0.03,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

// TestInteractionTable reads the table under "How they interact" in
// README.md: every metric and workload it names in backticks must be
// declared (a trailing .* names a family by prefix).
func TestInteractionTable(t *testing.T) {
	d, _ := readDeclared(t)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## How they interact")
	if !ok {
		t.Fatal("README.md has no interaction section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	layer, e2e, wl := map[string]bool{}, map[string]bool{"virt_slo_rps": true}, map[string]bool{}
	for _, m := range d.PerLayer {
		layer[m.Name] = true
	}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = true
		layer[m.Name] = true // the parallelism row reads two end-to-end metrics as its layer signal
	}
	for _, w := range d.Workloads {
		wl[w.Name] = true
	}
	known := func(set map[string]bool, n string) bool {
		if p, family := strings.CutSuffix(n, "*"); family {
			for k := range set {
				if strings.HasPrefix(k, p) {
					return true
				}
			}
			return false
		}
		return set[n]
	}
	tick := regexp.MustCompile("`([^`]+)`")
	rows := 0
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || strings.HasPrefix(strings.TrimSpace(cells[1]), "---") || strings.TrimSpace(cells[1]) == "layer metric" {
			continue
		}
		rows++
		for col, set := range map[int]map[string]bool{1: layer, 2: e2e, 3: wl, 4: wl} {
			for _, m := range tick.FindAllStringSubmatch(cells[col], -1) {
				if !known(set, m[1]) {
					t.Errorf("interaction table column %d names %q, which BENCHMARK.json does not declare", col, m[1])
				}
			}
		}
		if !tick.MatchString(cells[2]) || !tick.MatchString(cells[3]) {
			t.Errorf("interaction row %q names no end-to-end metric or no workload", strings.TrimSpace(cells[1]))
		}
	}
	if rows < 10 {
		t.Errorf("only %d interaction rows parsed", rows)
	}
}
