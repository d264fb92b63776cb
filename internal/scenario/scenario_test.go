package scenario

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/audit"
	"repro/internal/ledger"
	"repro/internal/vtime"
)

// testSessions scales the determinism regression: 10⁴ sessions as the
// issue demands, trimmed under -short for quick local iteration.
func testSessions(t *testing.T) int {
	if testing.Short() {
		return 1_000
	}
	return 10_000
}

func runPreset(t *testing.T, name string, sessions int, seed int64, mutate func(*Config)) (*Engine, *Result) {
	t.Helper()
	cfg, err := Preset(name, sessions, seed)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

// TestScenarioSmoke checks the basic open-loop contract on a small run:
// everything issued completes, latency is recorded, and the percentiles
// are ordered.
func TestScenarioSmoke(t *testing.T) {
	_, res := runPreset(t, "baseline", 500, 7, nil)
	want := uint64(500 * res.RequestsPerSession)
	if res.Issued != want || res.Completed != want {
		t.Fatalf("issued %d completed %d, want %d", res.Issued, res.Completed, want)
	}
	if res.Censored != 0 || res.Alien != 0 {
		t.Fatalf("unexpected censored %d / alien %d", res.Censored, res.Alien)
	}
	o := res.Overall
	if o.Samples != want || o.P50Cycles == 0 {
		t.Fatalf("overall latency not recorded: %+v", o)
	}
	if o.P50Cycles > o.P99Cycles || o.P99Cycles > o.P999Cycles || o.P999Cycles > o.MaxCycles {
		t.Fatalf("percentiles not monotone: %+v", o)
	}
	if res.VirtualRPS <= 0 {
		t.Fatalf("virtual throughput not reported")
	}
}

// TestScenarioDeterminism is the determinism regression the engine's
// value rests on: the same seed and config produce byte-identical
// canonical JSON and identical kernel trace counters across two
// independent runs, for both arrival processes and both loop modes.
func TestScenarioDeterminism(t *testing.T) {
	n := testSessions(t)
	for _, preset := range []string{"baseline", "bursty", "chaos"} {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			trace := func(c *Config) { c.Trace = true }
			e1, r1 := runPreset(t, preset, n, 42, trace)
			e2, r2 := runPreset(t, preset, n, 42, trace)
			b1, err := canonicalJSON(r1)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := canonicalJSON(r2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("canonical JSON diverges between same-seed runs:\n%s\nvs\n%s", b1, b2)
			}
			c1, c2 := e1.IM.TraceLog.Counts(), e2.IM.TraceLog.Counts()
			for k := range c1 {
				if c1[k] != c2[k] {
					t.Fatalf("trace counter %d diverges: %d vs %d", k, c1[k], c2[k])
				}
			}
			if r1.Completed == 0 {
				t.Fatalf("degenerate run: nothing completed")
			}
		})
	}
}

// TestScenarioSeedSensitivity guards against a frozen sampler: different
// seeds must actually produce different runs.
func TestScenarioSeedSensitivity(t *testing.T) {
	_, r1 := runPreset(t, "baseline", 500, 1, nil)
	_, r2 := runPreset(t, "baseline", 500, 2, nil)
	if r1.Fingerprint() == r2.Fingerprint() {
		t.Fatalf("different seeds produced identical results")
	}
}

// TestScenarioCacheDifferential runs the same scenario with and without
// the execution cache and asserts identical results AND identical final
// world state: the reachable-object snapshots must be image-equal, and the
// audit must pass in both worlds.
func TestScenarioCacheDifferential(t *testing.T) {
	n := testSessions(t) / 2
	cached, rs := runPreset(t, "baseline", n, 11, nil)
	ref, rp := runPreset(t, "baseline", n, 11, func(c *Config) { c.NoExecCache = true })

	bs, err := canonicalJSON(rs)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := canonicalJSON(rp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs, bp) {
		t.Fatalf("cached and uncached results diverge:\n%s\nvs\n%s", bs, bp)
	}

	audit.Check(t, cached.IM.System)
	audit.Check(t, ref.IM.System)

	ss := audit.SnapshotReachable(cached.IM.Table)
	sp := audit.SnapshotReachable(ref.IM.Table)
	if len(ss.Images) == 0 {
		t.Fatalf("cached snapshot captured no comparable objects")
	}
	if len(ss.Images) != len(sp.Images) {
		t.Fatalf("snapshot sizes diverge: %d vs %d", len(ss.Images), len(sp.Images))
	}
	for idx, a := range ss.Images {
		b, ok := sp.Images[idx]
		if !ok {
			t.Fatalf("object %d present only in cached world", idx)
		}
		if a.Type != b.Type || a.Gen != b.Gen || a.Level != b.Level ||
			a.DataLen != b.DataLen || a.AccessSlots != b.AccessSlots ||
			!bytes.Equal(a.Data, b.Data) || !bytes.Equal(a.Access, b.Access) {
			t.Fatalf("object %d diverges between cached and uncached worlds", idx)
		}
	}
	if cached.IM.Now() != ref.IM.Now() {
		t.Fatalf("final virtual time diverges: %v vs %v", cached.IM.Now(), ref.IM.Now())
	}
}

// TestScenarioLedgerFingerprint: with Cfg.Ledger set, the sealed audit
// ledger's Merkle root lands in the canonical Result, two same-seed runs
// commit to the same root with byte-identical ledgers, and the bytes
// self-verify with counters matching the live ring.
func TestScenarioLedgerFingerprint(t *testing.T) {
	withLedger := func(c *Config) { c.Trace = true; c.Ledger = true }
	e1, r1 := runPreset(t, "baseline", 400, 13, withLedger)
	e2, r2 := runPreset(t, "baseline", 400, 13, withLedger)

	if r1.LedgerRoot == "" || r1.LedgerSegments == 0 || r1.LedgerEvents == 0 {
		t.Fatalf("ledger commitment missing from result: root=%q segments=%d events=%d",
			r1.LedgerRoot, r1.LedgerSegments, r1.LedgerEvents)
	}
	if r1.LedgerDropped != 0 {
		t.Fatalf("default ledger config dropped %d events", r1.LedgerDropped)
	}
	if r1.LedgerRoot != r2.LedgerRoot || r1.Fingerprint() != r2.Fingerprint() {
		t.Fatalf("same-seed ledger roots diverge: %s vs %s", r1.LedgerRoot, r2.LedgerRoot)
	}
	b, err := canonicalJSON(r1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(r1.LedgerRoot)) {
		t.Fatalf("ledger root not committed by the canonical JSON")
	}
	if !bytes.Equal(e1.IM.Ledger.Bytes(), e2.IM.Ledger.Bytes()) {
		t.Fatalf("same-seed ledgers are not byte-identical")
	}

	rep, err := ledger.Verify(e1.IM.Ledger.Bytes())
	if err != nil {
		t.Fatalf("scenario ledger does not verify: %v", err)
	}
	if got := hex.EncodeToString(rep.Root[:]); got != r1.LedgerRoot {
		t.Fatalf("replay root %s != result root %s", got, r1.LedgerRoot)
	}
	seq, counts := e1.IM.TraceLog.Snapshot()
	if uint64(len(rep.Events)) != seq {
		t.Fatalf("ledger replayed %d events, ring emitted %d", len(rep.Events), seq)
	}
	for k, n := range counts {
		var got uint64
		if k < len(rep.Counts) {
			got = rep.Counts[k]
		}
		if got != n {
			t.Fatalf("kind %d: ledger count %d, ring count %d", k, got, n)
		}
	}

	// A run without the ledger omits the commitment entirely.
	_, plain := runPreset(t, "baseline", 400, 13, func(c *Config) { c.Trace = true })
	if plain.LedgerRoot != "" || plain.LedgerSegments != 0 {
		t.Fatalf("ledger fields leaked into a ledger-less result: %+v", plain)
	}
}

// TestScenarioPastOldCeiling: with MemoryBytes 0 the machine is sized from
// the population, so set-up no longer stops at the 261 631 sessions of
// 64 B that fit the driver's 16 MB — and every population the benchmark
// and the witnesses run still boots exactly that 16 MB machine.
func TestScenarioPastOldCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("300 000-session set-up: skipped in -short")
	}
	machine := func(sessions int) uint32 {
		t.Helper()
		cfg, err := Preset("baseline", sessions, 42)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("%d sessions: %v", sessions, err)
		}
		return e.IM.Table.Memory().Size()
	}
	if got := machine(100_000); got != defaultMemory {
		t.Errorf("100 000 sessions booted a %d-byte machine, want the driver's %d", got, defaultMemory)
	}
	if got := machine(300_000); got <= defaultMemory {
		t.Errorf("300 000 sessions booted a %d-byte machine, no larger than the driver's", got)
	}
	huge, _ := Preset("baseline", 1<<26, 42)
	if _, err := New(huge); err == nil {
		t.Error("a population past the 32-bit machine was accepted")
	}
}

// TestRequestPathAllocFree holds New to its promise that the run itself
// performs no engine-side allocation: issuing, sending, serving, waking,
// receiving and recording a request allocates nothing on the host, so what
// a run allocates is fixed — the execution caches and compiled traces of
// the server programs on first use (some forty objects) and the Result —
// and not a per-request cost the host collector pays for.
func TestRequestPathAllocFree(t *testing.T) {
	const sessions = 10_000
	cfg, err := Preset("baseline", sessions, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := e.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != sessions {
		t.Fatalf("completed %d of %d requests", res.Completed, sessions)
	}
	if per := float64(after.Mallocs-before.Mallocs) / float64(res.Completed); per > 0.01 {
		t.Errorf("Engine.Run allocates %.3f objects per completed request (%d in all); want at most 0.01",
			per, after.Mallocs-before.Mallocs)
	}
}

// TestAgendaOrder: whatever mix of pushes and pops the agenda sees — instants
// arriving in order (the arrival schedule), out of order (think gaps pushed
// between pops), many at one instant — every pop is the least outstanding
// event by (instant, push order), next and due agree with it, and the drain
// at the end is a sort of what was left.
func TestAgendaOrder(t *testing.T) {
	mixes := []struct {
		name string
		at   func(rng *rand.Rand, last vtime.Cycles) vtime.Cycles
		pops int // one pop per pops pushes while filling; 0: none
	}{
		{"in-order", func(rng *rand.Rand, last vtime.Cycles) vtime.Cycles { return last + vtime.Cycles(rng.Intn(40)) }, 0},
		{"in-order-popped", func(rng *rand.Rand, last vtime.Cycles) vtime.Cycles { return last + vtime.Cycles(rng.Intn(40)) }, 2},
		{"out-of-order", func(rng *rand.Rand, _ vtime.Cycles) vtime.Cycles { return vtime.Cycles(rng.Intn(5_000)) }, 3},
		{"equal-instants", func(rng *rand.Rand, _ vtime.Cycles) vtime.Cycles { return vtime.Cycles(rng.Intn(4)) }, 3},
		{"mostly-in-order", func(rng *rand.Rand, last vtime.Cycles) vtime.Cycles {
			if rng.Intn(5) == 0 {
				return vtime.Cycles(rng.Int63n(int64(last) + 1))
			}
			return last + vtime.Cycles(rng.Intn(3))
		}, 2},
	}
	for _, mix := range mixes {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var a agenda
			var model []event // outstanding, in push order
			popOne := func() {
				t.Helper()
				least := 0
				for i, ev := range model {
					if ev.at < model[least].at { // push order breaks ties: the first of equals stays
						least = i
					}
				}
				want := model[least]
				model = append(model[:least], model[least+1:]...)
				if at, ok := a.next(); !ok || at != want.at {
					t.Fatalf("%s/%d: next() = (%d, %v), want (%d, true)", mix.name, seed, at, ok, want.at)
				}
				if !a.due(want.at) || want.at > 0 && a.due(want.at-1) {
					t.Fatalf("%s/%d: due disagrees with next at instant %d", mix.name, seed, want.at)
				}
				if got := a.pop(); got != want {
					t.Fatalf("%s/%d: popped (%d, %d, sid %d), want (%d, %d, sid %d)",
						mix.name, seed, got.at, got.seq, got.sid, want.at, want.seq, want.sid)
				}
			}
			var last, latest vtime.Cycles
			for i := 0; i < 1_500; i++ {
				last = mix.at(rng, last)
				latest = max(latest, last)
				model = append(model, event{at: last, seq: uint64(i), sid: int32(i)})
				a.push(last, int32(i))
				if mix.pops > 0 && rng.Intn(mix.pops) == 0 && len(model) > 0 {
					popOne()
				}
			}
			if a.lastScheduled != latest {
				t.Fatalf("%s/%d: lastScheduled = %d, want %d", mix.name, seed, a.lastScheduled, latest)
			}
			for len(model) > 0 {
				popOne()
			}
			if _, ok := a.next(); ok || a.due(^vtime.Cycles(0)) {
				t.Fatalf("%s/%d: agenda not empty after the drain", mix.name, seed)
			}
		}
	}
}

// TestPrimesPerDispatch bounds how often a processor derives its
// execution-cache binding (gdp.Stats.Primes) against how often one binds a
// process, on the baseline preset and on two sharded nodes. A dispatch of
// another process owes one prime, and a context switch or a destruction
// anywhere costs each busy processor one (the generation is the table's); a
// wake-up owes none — when every AD store into a process invalidated, the
// carry slot took both presets past 2.6. Both counts are pure functions of
// the configuration. The sharded
// preset runs at the benchmark's arrival gap: at its own, ten times shorter,
// the nodes are saturated, no server ever parks, and every prime is one a
// context switch owes.
func TestPrimesPerDispatch(t *testing.T) {
	const sessions = 5_000
	check := func(name string, primes, dispatches, requests uint64, bound float64) {
		t.Helper()
		per := float64(primes) / float64(dispatches)
		t.Logf("%s: %d primes, %d dispatches, %d requests: %.2f primes per dispatch, %.2f per request",
			name, primes, dispatches, requests, per, float64(primes)/float64(requests))
		if per > bound {
			t.Errorf("%s: %.2f primes per dispatch, want at most %.1f", name, per, bound)
		}
	}
	cfg, err := Preset("baseline", sessions, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := e.IM.Stats()
	check("baseline", st.Primes, st.Dispatches, res.Completed, 1.7)

	scfg := ShardPreset(2, sessions, 42)
	scfg.MeanGap = 600
	se, sres := runShard(t, scfg)
	var primes, dispatches uint64
	for _, sn := range se.nodes {
		st := sn.IM.Stats()
		primes, dispatches = primes+st.Primes, dispatches+st.Dispatches
	}
	check("shard-2n", primes, dispatches, sres.Completed, 1.8)
}

// TestBacklogRefillAllocFree: a class backlog that fills, drains and refills
// keeps the room it has. Popping it by re-slicing from the front walked the
// backing array forward, so every refill reallocated.
func TestBacklogRefillAllocFree(t *testing.T) {
	cfg, err := Preset("baseline", 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, msg := &e.Classes[0], e.Sessions[0].Obj
	for { // fill the request port, so that every send below spills
		if ok, f := e.IM.SendMessage(cl.ReqPort, msg, 0); f != nil {
			t.Fatal(f)
		} else if !ok {
			break
		}
	}
	cycle := func() {
		for i := 0; i < 8; i++ {
			e.send(0, msg)
		}
		for len(cl.pending) > 0 {
			for i := 0; i < 3; i++ { // room for three of them
				if _, ok, f := e.IM.ReceiveMessage(cl.ReqPort); f != nil || !ok {
					t.Fatalf("request port: received=%v fault=%v", ok, f)
				}
			}
			e.flush()
		}
	}
	cycle() // the backlog's room is allocated once
	if allocs := testing.AllocsPerRun(10_000, cycle); allocs != 0 {
		t.Errorf("a fill, drain and refill of the backlog allocates %.2f objects; want 0", allocs)
	}
	if cl.Deferred < 7*10_000 {
		t.Errorf("Deferred = %d: the sends did not spill, the backlog was never exercised", cl.Deferred)
	}
}

// TestEngineMultiRequestSessions runs the single-machine engine with more
// than one request per session, which no preset does: the per-session
// in-flight queue holds more than one instant, the partly-open mode
// reschedules a think time after each completion (an instant that can be
// earlier than arrivals already queued, so the agenda heaps it), and the
// pure open loop schedules every instant up front. Every request issued is
// accounted for, session by session, and the result is a pure function of
// the configuration in both interpreter corners.
func TestEngineMultiRequestSessions(t *testing.T) {
	const sessions, each = 300, 3
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"partly-open", func(c *Config) {}},
		{"open-loop", func(c *Config) { c.OpenLoop = true }},
		{"open-loop-short-think", func(c *Config) { c.OpenLoop = true; c.ThinkMean = 500 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var prints []string
			for _, nocache := range []bool{false, true, false} {
				e, res := runPreset(t, "baseline", sessions, 17, func(c *Config) {
					c.RequestsPerSession = each
					c.NoExecCache = nocache
					tc.mutate(c)
				})
				if res.Issued != sessions*each || res.Completed+res.Censored != res.Issued || res.Unissued != 0 || res.Alien != 0 {
					t.Fatalf("nocache=%v: issued %d, completed %d, censored %d, unissued %d, alien %d; want %d issued and all of them accounted for",
						nocache, res.Issued, res.Completed, res.Censored, res.Unissued, res.Alien, sessions*each)
				}
				for i, s := range e.Sessions {
					if s.Issued != each || s.Completed+s.Censored != each || len(s.issueAt) != 0 {
						t.Fatalf("nocache=%v: session %d issued %d, completed %d, censored %d, %d still in flight",
							nocache, i, s.Issued, s.Completed, s.Censored, len(s.issueAt))
					}
				}
				if cap(e.events) == 0 {
					t.Fatalf("nocache=%v: no out-of-order instant ever went to the agenda's heap", nocache)
				}
				prints = append(prints, res.Fingerprint())
			}
			if prints[0] != prints[2] {
				t.Fatalf("two runs of one configuration differ: %s vs %s", prints[0], prints[2])
			}
			if prints[0] != prints[1] {
				t.Fatalf("cached and uncached runs differ: %s vs %s", prints[0], prints[1])
			}
		})
	}
}
