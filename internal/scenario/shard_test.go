package scenario

import (
	"hash/crc32"
	"reflect"
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
		im := e.Cluster.Nodes[homeOf(i, len(e.nodes))].IM
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
// which every request migrates, below the knee (the benchmark's gap): two
// hops a request, each encoding into a pooled image buffer and activating
// into a pooled created list, and the reply folded through views. NewShard
// sizes every pool, queue and scratch the run fills, the kernels' free lists
// and the programs' decoding, so the run allocates its ShardResult and
// nothing else: the result, its class and node reports (shardResultAllocs),
// whatever the request count. No pool, queue, scratch or kernel free list
// gains room (shardRoom).
func TestShardRunAllocBound(t *testing.T) {
	cfg := ShardPreset(2, 30_000, 42)
	cfg.MigratePermille = 1000
	cfg.MeanGap = 600 // below the knee, as the benchmark's shard workload
	var e *ShardEngine
	var r *ShardResult
	var err error
	before := 0
	// A process's first CRC builds hash/crc32's table: a cost of the
	// process, not of the run.
	warm := func() { crc32.ChecksumIEEE(nil) }
	mallocs, bytes := leastRunAllocs(2, warm, func() func() {
		var berr error
		if e, berr = NewShard(cfg); berr != nil {
			t.Fatal(berr)
		}
		before = shardRoom(e)
		return func() { r, err = e.Run() }
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != r.Issued || r.MigratedCompleted != r.Completed {
		t.Fatalf("%d of %d requests completed, %d of them migrated", r.Completed, r.Issued, r.MigratedCompleted)
	}
	t.Logf("run allocated %d times, %d bytes, for %d completed requests", mallocs, bytes, r.Completed)
	if mallocs > shardResultAllocs {
		t.Errorf("run allocated %d times (%d bytes); want at most %d, the result's", mallocs, bytes, shardResultAllocs)
	}
	if got := shardRoom(e); got != before {
		t.Errorf("the run grew the room of its pools, queues, scratch and free lists from %d to %d entries", before, got)
	}
}

// shardResultAllocs is what ShardEngine.result allocates for a two-class,
// two-node run: the result, and its class and node reports sized once each.
const shardResultAllocs = 3

// shardRoom sums the room of what a sharded run fills: each node's outbox,
// copies and free copy slots; the cluster's wire queues, and each node's
// pools with every buffer and list in them and its Deliver slice; each
// kernel's filing scratch, free-slot list and hole list. The packages below
// the engine keep theirs unexported, so it reads those fields by name.
// Capacities only grow, so a run whose flights all closed and that leaves
// the sum as it was grew none of them.
func shardRoom(e *ShardEngine) int {
	field := func(p any, name string) reflect.Value { return reflect.ValueOf(p).Elem().FieldByName(name) }
	n := room(field(e.Cluster, "queues"))
	for i, sn := range e.nodes {
		n += cap(sn.out.activated) + cap(sn.out.departures) + cap(sn.copies) + cap(sn.free)
		nd := e.Cluster.Nodes[i]
		for _, name := range []string{"images", "lists", "delivered"} {
			n += room(field(nd, name))
		}
		n += room(field(nd.IM.Files, "order")) + room(field(nd.IM.Files, "edges"))
		n += room(field(nd.IM.Table, "free")) + room(field(nd.IM.Table.Memory(), "free"))
	}
	return n
}

// room is the capacity of slice v and of every slice among its elements.
func room(v reflect.Value) int {
	n := v.Cap()
	if v.Type().Elem().Kind() == reflect.Slice {
		for i := range v.Len() {
			n += room(v.Index(i))
		}
	}
	return n
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
	for _, sn := range e.nodes {
		remote += len(sn.copies) - len(sn.free)
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
