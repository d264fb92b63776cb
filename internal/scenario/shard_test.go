package scenario

import (
	"runtime"
	"testing"

	"repro/internal/audit"
	"repro/internal/workload"
)

func shardTestConfig(nodes, sessions int) ShardConfig {
	return ShardConfig{
		Nodes:           nodes,
		MigratePermille: 300,
		Load: Load{
			Name:       "shard-test",
			Seed:       42,
			Sessions:   sessions,
			Processors: 2,
			MeanGap:    400,
			Classes: []Class{
				{
					Name: "interactive", Weight: 3, Servers: 4,
					Priority: 12, TimeSlice: 3_000,
					Spec: workload.ServerSpec{Demand: 30, Touches: 2},
				},
				{
					Name: "batch", Weight: 1, Servers: 2,
					Priority: 3, TimeSlice: 8_000,
					Spec: workload.ServerSpec{Demand: 300, Touches: 4, DomainCalls: 1},
				},
			},
		},
	}
}

func runShard(t *testing.T, cfg ShardConfig) (*ShardEngine, *ShardResult) {
	t.Helper()
	e, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, r
}

func TestShardRunCompletes(t *testing.T) {
	e, r := runShard(t, shardTestConfig(2, 120))
	if r.Completed+r.Censored != r.Issued {
		t.Fatalf("accounting leak: %d completed + %d censored != %d issued",
			r.Completed, r.Censored, r.Issued)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if r.Censored != 0 {
		t.Fatalf("%d requests censored in an unloaded run", r.Censored)
	}
	if r.MigratedIssued == 0 {
		t.Fatal("no request migrated at 300 permille")
	}
	if r.MigratedCompleted != r.MigratedIssued {
		t.Fatalf("%d of %d migrated requests completed", r.MigratedCompleted, r.MigratedIssued)
	}
	// Every migrated request is one request graph out and one reply
	// graph back, each of exactly one object.
	if r.WireMsgs != 2*r.MigratedIssued {
		t.Fatalf("wire carried %d messages for %d migrations", r.WireMsgs, r.MigratedIssued)
	}
	if r.FailedActivations != 0 {
		t.Fatalf("%d failed activations", r.FailedActivations)
	}
	if vs := e.CheckTransfers(); len(vs) > 0 {
		t.Fatalf("transfer accounting violated after run: %v", vs)
	}
	checkFlightsClosed(t, e)
	for _, n := range e.Cluster.Nodes {
		audit.Check(t, n.IM.System)
	}
	// Per-node served counts must sum to the cluster total.
	var served uint64
	for _, nr := range r.PerNode {
		served += nr.Served
	}
	if served != r.Completed {
		t.Fatalf("per-node served %d != completed %d", served, r.Completed)
	}
}

func TestShardDeterminism(t *testing.T) {
	_, r1 := runShard(t, shardTestConfig(3, 160))
	_, r2 := runShard(t, shardTestConfig(3, 160))
	if r1.Fingerprint() != r2.Fingerprint() {
		j1, _ := canonicalJSON(r1)
		j2, _ := canonicalJSON(r2)
		t.Fatalf("same config, different results:\n%s\nvs\n%s", j1, j2)
	}
}

func TestShardSingleNodeNeverMigrates(t *testing.T) {
	cfg := shardTestConfig(1, 80)
	cfg.MigratePermille = 1000
	_, r := runShard(t, cfg)
	if r.MigratedIssued != 0 || r.WireMsgs != 0 {
		t.Fatalf("single node migrated: %d requests, %d wire msgs", r.MigratedIssued, r.WireMsgs)
	}
	if r.Completed != r.Issued {
		t.Fatalf("%d of %d completed", r.Completed, r.Issued)
	}
}

// TestShardMigrationWitness runs a fully-migrating population and checks
// the byte-level service witness: each completed request increments each
// touched dword of the *canonical* session object by exactly one, so the
// copy-out, remote service, and copy-back pipeline must deliver exactly
// the same bytes a local run would.
func TestShardMigrationWitness(t *testing.T) {
	cfg := ShardConfig{
		Nodes:           2,
		MigratePermille: 1000, // every request served off-home
		Load: Load{
			Name:       "shard-witness",
			Seed:       7,
			Sessions:   30,
			Processors: 2,
			MeanGap:    2_000,
			Classes: []Class{{
				Name: "only", Weight: 1, Servers: 3,
				Priority: 10, TimeSlice: 3_000,
				Spec: workload.ServerSpec{Demand: 20, Touches: 2},
			}},
		},
	}
	e, r := runShard(t, cfg)
	if r.Completed != r.Issued || r.Censored != 0 {
		t.Fatalf("run did not drain: %+v", r)
	}
	if r.MigratedIssued != r.Issued {
		t.Fatalf("only %d of %d requests migrated at 1000 permille", r.MigratedIssued, r.Issued)
	}
	for i := range e.sessions {
		s := &e.sessions[i]
		im := e.Cluster.Nodes[s.Home].IM
		for w := uint32(0); w < 2; w++ {
			v, f := im.Table.ReadDWord(s.Obj, w*4)
			if f != nil {
				t.Fatal(f)
			}
			if v != uint32(s.Completed) {
				t.Fatalf("session %d dword %d = %d, want %d: migrated service lost updates",
					i, w, v, s.Completed)
			}
		}
	}
	if vs := e.CheckTransfers(); len(vs) > 0 {
		t.Fatalf("transfer accounting violated: %v", vs)
	}
}

// TestShardSoakCrossNodeAccounting audits the transfer ledger at every
// lockstep boundary of a busier run — single ownership of every
// passivated graph and passivation/activation reconciliation must hold
// mid-flight, not just at the end — and closes with the full per-node
// kernel audit.
func TestShardSoakCrossNodeAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short")
	}
	cfg := shardTestConfig(3, 720)
	cfg.MigratePermille = 500
	e, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	e.StepHook = func(e *ShardEngine) {
		if vs := e.CheckTransfers(); len(vs) > 0 {
			t.Fatalf("transfer accounting violated mid-run at %v: %v", e.now, vs)
		}
		checks++
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if checks == 0 {
		t.Fatal("step hook never ran")
	}
	if r.Completed+r.Censored != r.Issued {
		t.Fatalf("accounting leak: %+v", r)
	}
	if r.MigratedCompleted == 0 {
		t.Fatal("soak migrated nothing")
	}
	if vs := e.CheckTransfers(); len(vs) > 0 {
		t.Fatalf("transfer accounting violated at end: %v", vs)
	}
	checkFlightsClosed(t, e)
	for _, n := range e.Cluster.Nodes {
		audit.Check(t, n.IM.System)
	}
}

// checkFlightsClosed: after the run's final drain no graph is left on the
// wire or delivered but not activated.
func checkFlightsClosed(t *testing.T, e *ShardEngine) {
	t.Helper()
	for _, fl := range e.Cluster.Snapshot().Flights {
		if fl.State != audit.FlightClosed {
			t.Fatalf("graph %d is %q after the drain, want closed", fl.ID, fl.State)
		}
	}
}

// TestShardRunAllocBound pins the host allocations of a sharded run in
// which every request migrates: two hops a request, each encoding into a
// recycled image buffer and activating into a recycled created list, and
// the reply folded through views. What is left does not grow with the
// request count, or grows by doubling: the pools filling to what is in
// flight at the peak, the queues, the transfer ledger's records, one-time
// caches and the result — some 200 allocations, hence the population.
func TestShardRunAllocBound(t *testing.T) {
	cfg := ShardPreset(2, 30_000, 42)
	cfg.MigratePermille = 1000
	cfg.MeanGap = 600 // below the knee, as the benchmark's shard workload
	e, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := e.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 || r.MigratedCompleted != r.Completed {
		t.Fatalf("%d of %d completed requests migrated", r.MigratedCompleted, r.Completed)
	}
	mallocs := after.Mallocs - before.Mallocs
	if per := float64(mallocs) / float64(r.Completed); per > 0.01 {
		t.Fatalf("run allocated %d times for %d completed requests (%.4f each), want at most 0.01 each",
			mallocs, r.Completed, per)
	}
}

// TestShardScaleOut is the scale-out acceptance property (DESIGN.md
// §10.4): the same saturating arrival schedule completes at materially
// higher aggregate throughput on four nodes than on one.
func TestShardScaleOut(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-out: skipped in -short")
	}
	sessions := 600
	_, r1 := runShard(t, ShardPreset(1, sessions, 42))
	_, r4 := runShard(t, ShardPreset(4, sessions, 42))
	if r1.Completed != r1.Issued || r4.Completed != r4.Issued {
		t.Fatalf("runs did not drain: 1n %d/%d, 4n %d/%d",
			r1.Completed, r1.Issued, r4.Completed, r4.Issued)
	}
	if r4.AggregateRPS < 2*r1.AggregateRPS {
		t.Fatalf("4 nodes = %.0f rps, 1 node = %.0f rps: scale-out under 2x",
			r4.AggregateRPS, r1.AggregateRPS)
	}
}

// TestShardCensoredRun drives the drain deadline on a cluster: arrivals
// far above the service rate and a short DrainBudget leave requests queued,
// in service and as remote copies when the deadline lands. Censoring must
// still account for every request, leave the wire empty and both kernels
// and the transfer ledger consistent, and do so deterministically.
func TestShardCensoredRun(t *testing.T) {
	cfg := shardTestConfig(2, 800)
	cfg.MeanGap = 20
	cfg.DrainBudget = 3_000
	e, r := runShard(t, cfg)
	if r.Censored == 0 {
		t.Fatal("nothing censored: the run never reached the deadline path")
	}
	remote := 0
	for i := range e.sessions {
		if len(e.sessions[i].remote) > 0 {
			remote++
		}
	}
	if remote == 0 {
		t.Fatal("no remote copy was in service at the deadline")
	}
	if r.Completed+r.Censored != r.Issued {
		t.Fatalf("accounting leak: %d completed + %d censored != %d issued", r.Completed, r.Censored, r.Issued)
	}
	if r.Overall.Samples != r.Issued {
		t.Fatalf("%d latency samples for %d issued requests", r.Overall.Samples, r.Issued)
	}
	if n := e.Cluster.PendingWire(); n != 0 {
		t.Fatalf("%d messages left on the wire", n)
	}
	if vs := e.CheckTransfers(); len(vs) > 0 {
		t.Fatalf("transfer accounting violated after a censored run: %v", vs)
	}
	for ni, n := range e.Cluster.Nodes {
		if vs := audit.New(n.IM.System).CheckAll(); len(vs) > 0 {
			t.Fatalf("node %d audit after a censored run: %v", ni, vs)
		}
	}
	if _, r2 := runShard(t, cfg); r2.Fingerprint() != r.Fingerprint() {
		t.Fatal("two censored runs of one config fingerprint differently")
	}
}
