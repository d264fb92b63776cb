package scenario

import "repro/internal/vtime"

// ShardNodeReport is one kernel's slice of a sharded run.
type ShardNodeReport struct {
	Node          int    `json:"node"`
	SessionsHomed int    `json:"sessions_homed"`
	Completed     uint64 `json:"completed"` // home-attributed completions
	Served        uint64 `json:"served"`    // requests whose service ran here
	// VirtualRPS is served requests per simulated second on this node.
	VirtualRPS       float64 `json:"virtual_rps"`
	FiledObjects     uint64  `json:"filed_objects"`
	ActivatedObjects uint64  `json:"activated_objects"`
}

// ShardClassReport is the per-class latency slice.
type ShardClassReport struct {
	Name    string        `json:"name"`
	Latency LatencyReport `json:"latency"`
}

// ShardResult is the complete, deterministic outcome of a sharded
// scenario run: a pure function of the ShardConfig. Like Result, it
// contains no host wall-clock quantity.
type ShardResult struct {
	Name            string `json:"name"`
	Seed            int64  `json:"seed"`
	Nodes           int    `json:"nodes"`
	Sessions        int    `json:"sessions"`
	Processors      int    `json:"processors_per_node"`
	Policy          string `json:"policy"`
	MigratePermille int    `json:"migrate_permille"`

	VirtualCycles uint64  `json:"virtual_cycles"`
	VirtualMs     float64 `json:"virtual_ms"`
	// AggregateRPS is cluster-wide completed requests per simulated
	// second — the scale-out headline.
	AggregateRPS float64 `json:"aggregate_rps"`

	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	Censored  uint64 `json:"censored"`
	Unissued  uint64 `json:"unissued"` // Sessions − Issued, as in Result
	Deferred  uint64 `json:"deferred"`

	MigratedIssued    uint64 `json:"migrated_issued"`
	MigratedCompleted uint64 `json:"migrated_completed"`
	// MigrationFraction is migrated / issued.
	MigrationFraction float64 `json:"migration_fraction"`

	// Wire accounting, from the transfer channel.
	WireMsgs          uint64 `json:"wire_msgs"`
	WireBytes         uint64 `json:"wire_bytes"`
	FailedActivations uint64 `json:"failed_activations"`

	Overall LatencyReport      `json:"overall"`
	Classes []ShardClassReport `json:"classes"`
	PerNode []ShardNodeReport  `json:"per_node"`
}

func (e *ShardEngine) result() *ShardResult {
	cycles := uint64(e.now)
	r := &ShardResult{
		Name:              e.Cfg.Name,
		Seed:              e.Cfg.Seed,
		Nodes:             e.Cfg.Nodes,
		Sessions:          e.Cfg.Sessions,
		Processors:        e.Cfg.Processors,
		Policy:            e.Cfg.Policy,
		MigratePermille:   e.Cfg.MigratePermille,
		VirtualCycles:     cycles,
		VirtualMs:         float64(cycles) / (vtime.HzDefault / 1e3),
		Issued:            e.totIssued,
		Completed:         e.totCompleted,
		Censored:          e.totCensored,
		Unissued:          uint64(e.Cfg.Sessions) - e.totIssued,
		MigratedIssued:    e.migIssued,
		MigratedCompleted: e.migCompleted,
		WireMsgs:          e.Cluster.Shipped,
		WireBytes:         e.Cluster.WireBytes,
		FailedActivations: e.Cluster.FailedActivations,
		Overall:           latencyReport(&e.all),
	}
	if cycles > 0 {
		r.AggregateRPS = float64(e.totCompleted) * vtime.HzDefault / float64(cycles)
	}
	if e.totIssued > 0 {
		r.MigrationFraction = float64(e.migIssued) / float64(e.totIssued)
	}
	r.Classes = make([]ShardClassReport, 0, len(e.Cfg.Classes))
	for ci, c := range e.Cfg.Classes {
		r.Classes = append(r.Classes, ShardClassReport{Name: c.Name, Latency: latencyReport(&e.perClass[ci])})
	}
	r.PerNode = make([]ShardNodeReport, 0, len(e.nodes))
	for ni, sn := range e.nodes {
		for ci := range sn.Classes {
			r.Deferred += sn.Classes[ci].Deferred
		}
		nr := ShardNodeReport{
			Node:             ni,
			SessionsHomed:    sn.homed,
			Completed:        sn.Completed,
			Served:           sn.Served,
			FiledObjects:     sn.IM.Files.FiledObjects,
			ActivatedObjects: sn.IM.Files.ActivatedObjects,
		}
		if cycles > 0 {
			nr.VirtualRPS = float64(sn.Served) * vtime.HzDefault / float64(cycles)
		}
		r.PerNode = append(r.PerNode, nr)
	}
	return r
}

// Fingerprint is the hex SHA-256 of the canonical JSON.
func (r *ShardResult) Fingerprint() string { return fingerprint(r) }
