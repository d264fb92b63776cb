package scenario

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
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
	const want = 500
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
// independent runs, for both arrival processes and under injection.
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
// world state: every object of a comparable type must be the same object
// with the same bytes in both, and the audit must pass in both worlds.
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

	objs := audit.ComparableObjects(cached.IM.Table)
	if len(objs) == 0 {
		t.Fatalf("cached world holds no comparable objects")
	}
	if fmt.Sprint(objs) != fmt.Sprint(audit.ComparableObjects(ref.IM.Table)) {
		t.Fatalf("cached and uncached worlds hold different objects")
	}
	if vs := audit.New(cached.IM.System).CheckConfinement(ref.IM.Table, objs); len(vs) > 0 {
		t.Fatalf("cached and uncached worlds diverge: %v", vs[0])
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
// receiving and recording a request allocates nothing on the host, and New
// decodes the server programs and sizes the kernel's free lists for what
// the run creates, so a run allocates its Result and nothing else
// (resultAllocs), at any population: the larger run allocates no more.
func TestRequestPathAllocFree(t *testing.T) {
	run := func(sessions int) uint64 {
		t.Helper()
		var res *Result
		var err error
		mallocs, bytes := leastRunAllocs(3, nil, func() func() {
			cfg, cerr := Preset("baseline", sessions, 42)
			if cerr != nil {
				t.Fatal(cerr)
			}
			e, cerr := New(cfg)
			if cerr != nil {
				t.Fatal(cerr)
			}
			return func() { res, err = e.Run() }
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != uint64(sessions) {
			t.Fatalf("completed %d of %d requests", res.Completed, sessions)
		}
		t.Logf("%d sessions: Engine.Run allocated %d times, %d bytes", sessions, mallocs, bytes)
		if mallocs > resultAllocs {
			t.Errorf("Engine.Run over %d sessions allocates %d objects; want at most %d, the Result's",
				sessions, mallocs, resultAllocs)
		}
		return mallocs
	}
	if small, large := run(2_000), run(10_000); large > small {
		t.Errorf("Engine.Run allocates %d objects over 10 000 sessions, more than its %d over 2 000", large, small)
	}
}

// raceBuild reports a build with the race detector, whose own bookkeeping
// adds to what a build allocates (race_test.go sets it).
var raceBuild bool

// resultAllocs is what Engine.result allocates for a two-class run: the
// Result, and its class reports sized once.
const resultAllocs = 2

// TestAgendaOrder holds what the schedule rests on: arrivalTimes draws
// instants non-decreasing in session order, for both arrival processes over
// several seeds and gaps — gaps of 0 and 1 make runs of equal instants — so
// a cursor over them issues every session at its instant, and due, next and
// last agree at every step with a model that scans all the instants for the
// least one whose session is not yet issued (the first of equals).
func TestAgendaOrder(t *testing.T) {
	const n = 1_500
	for _, kind := range []Arrival{Poisson, Bursty} {
		for _, mean := range []vtime.Cycles{0, 1, 3, 40, 500} {
			for seed := int64(1); seed <= 4; seed++ {
				at := arrivalTimes(rand.New(rand.NewSource(seed)), kind, n, mean)
				name := fmt.Sprintf("%s/gap%d/seed%d", kind, mean, seed)
				for i := 1; i < n; i++ {
					if at[i] < at[i-1] {
						t.Fatalf("%s: session %d arrives at %d, before session %d at %d", name, i, at[i], i-1, at[i-1])
					}
				}
				s := schedule{at: at}
				issued := make([]bool, n)
				var latest vtime.Cycles
				for _, x := range at {
					latest = max(latest, x)
				}
				if s.last() != latest {
					t.Fatalf("%s: last() = %d, want %d", name, s.last(), latest)
				}
				for k := 0; k < n; k++ {
					least := -1
					for i, x := range at {
						if !issued[i] && (least < 0 || x < at[least]) {
							least = i
						}
					}
					want := at[least]
					if x, ok := s.next(); !ok || x != want {
						t.Fatalf("%s: next() = (%d, %v), want (%d, true)", name, x, ok, want)
					}
					if !s.due(want) || want > 0 && s.due(want-1) {
						t.Fatalf("%s: due disagrees with next at instant %d", name, want)
					}
					if got := s.pop(); got != least {
						t.Fatalf("%s: popped session %d, want %d", name, got, least)
					}
					issued[least] = true
				}
				if _, ok := s.next(); ok || s.due(^vtime.Cycles(0)) {
					t.Fatalf("%s: schedule not empty after every session issued", name)
				}
			}
		}
	}
}

// log2fpRecurrence is log2fp as it was first written, the textbook digit
// recurrence with a branch per fractional bit: the reference the branchless
// form is held to.
func log2fpRecurrence(u uint64) uint64 {
	k := uint64(bits.Len64(u) - 1)
	var x uint64
	if k >= 30 {
		x = u >> (k - 30)
	} else {
		x = u << (30 - k)
	}
	var frac uint64
	for i := 0; i < 16; i++ {
		x = x * x >> 30
		frac <<= 1
		if x >= 1<<31 {
			frac |= 1
			x >>= 1
		}
	}
	return k<<16 | frac
}

// TestLog2fpDigitRecurrence holds log2fp to the digit recurrence at every
// power of two and its two neighbours, where the normalising shift and the
// squares' carries turn, and along a stride through [1, 2^30], the range
// expGap draws from. (A run over every u in that range agreed as well; it
// takes half a minute, too long for every test run.)
func TestLog2fpDigitRecurrence(t *testing.T) {
	check := func(u uint64) {
		if got, want := log2fp(u), log2fpRecurrence(u); got != want {
			t.Fatalf("log2fp(%d) = %#x, the digit recurrence gives %#x", u, got, want)
		}
	}
	for k := 0; k < 64; k++ {
		p := uint64(1) << k
		check(p)
		check(p + 1)
		if p > 1 {
			check(p - 1)
		}
	}
	for u := uint64(1); u <= 1<<30; u += 4093 {
		check(u)
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

// TestBuildAllocBound holds building a world to the cost of what it
// creates: the objects and bytes New (the baseline preset), NewShard and New
// under memory pressure allocate for each session past the first, at 2 000
// sessions. A session owns an entry in the engine, the object table, the
// side map and the schedule, each sized once for the whole population, and
// nothing else: New anchors straight from its sessions, so a session costs
// no object and some 70 bytes (82 while the anchored objects were listed
// again; 94 while a session was 28 bytes). NewShard keeps some 82 bytes a
// session, with its route and its nodes' tables (86 under the race
// detector); when every array doubled its way there it was 0.0125 and 0.010
// objects and 238 and 221 bytes. Under memory pressure a create evicts another session's
// object, whose image the backing store keeps: some 115 bytes a session at
// this size, 144 under the race detector (raceBytes), and no fault, since
// a create that must fail for want of a hole is not tried.
func TestBuildAllocBound(t *testing.T) {
	const n = 2_000
	for _, c := range []struct {
		name                      string
		build                     func(sessions int) error
		objects, bytes, raceBytes float64
	}{
		{"New", func(sessions int) error {
			cfg, err := Preset("baseline", sessions, 42)
			if err == nil {
				_, err = New(cfg)
			}
			return err
		}, 0.005, 74, 74},
		{"NewShard", func(sessions int) error {
			_, err := NewShard(ShardPreset(2, sessions, 42))
			return err
		}, 0.005, 100, 100},
		{"mempressure", func(sessions int) error {
			cfg, err := Preset("mempressure", sessions, 42)
			if err == nil {
				_, err = New(cfg)
			}
			return err
		}, 0.55, 120, 150},
	} {
		var err error
		build := func(sessions int) func() {
			return func() {
				if err == nil {
					err = c.build(sessions)
				}
			}
		}
		// The warm build sets up what a first build in a process sets up once.
		objects1, bytes1 := hostAllocs(build(1), build(1))
		objectsN, bytesN := hostAllocs(nil, build(n))
		if err != nil {
			t.Fatal(err)
		}
		objects := (float64(objectsN) - float64(objects1)) / (n - 1)
		bytes := (float64(bytesN) - float64(bytes1)) / (n - 1)
		t.Logf("%s: %.4f objects and %.0f bytes per session", c.name, objects, bytes)
		bound := c.bytes
		if raceBuild {
			bound = c.raceBytes
		}
		if objects > c.objects || bytes > bound {
			t.Errorf("%s allocates %.4f objects and %.0f bytes per session; want at most %g and %g", c.name, objects, bytes, c.objects, bound)
		}
	}
}

// leastRunAllocs builds a world and runs it reps times, and reports the
// fewest objects, with their bytes, that hostAllocs measured a run to
// allocate. The runtime's background work (the scavenger's timers, a
// collection's mark workers) allocates now and then while a run is
// measured; the least of a few runs is the run's own.
func leastRunAllocs(reps int, warm func(), build func() (run func())) (objects, bytes uint64) {
	objects = math.MaxUint64
	for range reps {
		if o, b := hostAllocs(warm, build()); o < objects {
			objects, bytes = o, b
		}
	}
	return objects, bytes
}

// hostAllocs reports the objects and bytes the host allocates while run
// runs, measured as testing.AllocsPerRun measures: with GOMAXPROCS pinned
// to 1, so that no other goroutine runs alongside, after warm (if not nil)
// and a collection, and with GOMAXPROCS restored after. It is the one way an
// allocation contract in this package reads runtime.MemStats.
func hostAllocs(warm, run func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if warm != nil {
		warm()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}
