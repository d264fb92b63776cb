package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/vtime"
)

// LatencyReport is the SLO view of one latency population. Cycles fields
// are the deterministic ground truth; the microsecond fields are derived
// by exact power-of-two division (8 MHz clock) and carry no additional
// platform dependence.
type LatencyReport struct {
	Samples    uint64  `json:"samples"`
	P50Cycles  uint64  `json:"p50_cycles"`
	P99Cycles  uint64  `json:"p99_cycles"`
	P999Cycles uint64  `json:"p999_cycles"`
	MaxCycles  uint64  `json:"max_cycles"`
	MeanCycles uint64  `json:"mean_cycles"`
	P50Us      float64 `json:"p50_us"`
	P99Us      float64 `json:"p99_us"`
	P999Us     float64 `json:"p999_us"`
}

func latencyReport(h *vtime.Hist) LatencyReport {
	p50 := h.Quantile(50, 100)
	p99 := h.Quantile(99, 100)
	p999 := h.Quantile(999, 1000)
	return LatencyReport{
		Samples:    h.N(),
		P50Cycles:  uint64(p50),
		P99Cycles:  uint64(p99),
		P999Cycles: uint64(p999),
		MaxCycles:  uint64(h.Max()),
		MeanCycles: uint64(h.Mean()),
		P50Us:      p50.Microseconds(),
		P99Us:      p99.Microseconds(),
		P999Us:     p999.Microseconds(),
	}
}

// ClassReport is the per-class slice of a Result.
type ClassReport struct {
	Name      string        `json:"name"`
	Sessions  int           `json:"sessions"`
	Servers   int           `json:"servers"`
	Issued    uint64        `json:"issued"`
	Completed uint64        `json:"completed"`
	Censored  uint64        `json:"censored"`
	Deferred  uint64        `json:"deferred"`
	Latency   LatencyReport `json:"latency"`
}

// Result is the complete, deterministic outcome of a scenario run: a
// pure function of the scenario Config. It deliberately contains no host
// wall-clock quantity — host throughput is measured around Run by the
// caller (benchmark/) so the Result itself can be compared byte-for-byte.
type Result struct {
	Name       string `json:"name"`
	Seed       int64  `json:"seed"`
	Sessions   int    `json:"sessions"`
	Processors int    `json:"processors"`
	Policy     string `json:"policy"`
	Arrival    string `json:"arrival"`
	Swapping   bool   `json:"swapping"`

	VirtualCycles uint64  `json:"virtual_cycles"`
	VirtualMs     float64 `json:"virtual_ms"`
	// VirtualRPS is completed requests per simulated second.
	VirtualRPS float64 `json:"virtual_rps"`

	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	Censored  uint64 `json:"censored"`
	Deferred  uint64 `json:"deferred"`
	// Unissued is Sessions − Issued: sessions whose request was never
	// sent. Every arrival precedes the drain deadline, so a run that
	// returns reads 0; the benchmark counts it among its failures.
	Unissued uint64 `json:"unissued"`
	// Alien counts reply-port messages that were not session objects
	// (injector flood fillers relayed by a server).
	Alien uint64 `json:"alien"`

	Overall LatencyReport `json:"overall"`
	Classes []ClassReport `json:"classes"`

	Dispatches   uint64 `json:"dispatches"`
	Preemptions  uint64 `json:"preemptions"`
	FaultsSent   uint64 `json:"faults_sent"`
	Instructions uint64 `json:"instructions"`

	SwapOuts       uint64 `json:"swap_outs"`
	SwapIns        uint64 `json:"swap_ins"`
	Evictions      uint64 `json:"evictions"`
	FaultsServiced uint64 `json:"faults_serviced"`
	Compactions    uint64 `json:"compactions"`
	CompactMoves   uint64 `json:"compact_moves"`

	InjectPlanned int      `json:"inject_planned,omitempty"`
	InjectFired   int      `json:"inject_fired,omitempty"`
	InjectByKind  []uint64 `json:"inject_by_kind,omitempty"`

	// Ledger commitment (Cfg.Ledger only): the Merkle root over the
	// sealed audit-ledger segments plus the pipeline counters. The root
	// commits to the run's entire event history, so two same-seed runs
	// agreeing on the canonical fingerprint agree on every kernel event.
	LedgerRoot     string `json:"ledger_root,omitempty"`
	LedgerSegments int    `json:"ledger_segments,omitempty"`
	LedgerEvents   uint64 `json:"ledger_events,omitempty"`
	LedgerDropped  uint64 `json:"ledger_dropped,omitempty"`
}

// result assembles the Result from the engine's final state.
func (e *Engine) result() *Result {
	st := e.IM.Stats()
	cycles := uint64(e.IM.Now())
	r := &Result{
		Name:          e.Cfg.Name,
		Seed:          e.Cfg.Seed,
		Sessions:      e.Cfg.Sessions,
		Processors:    e.Cfg.Processors,
		Policy:        e.Cfg.Policy,
		Arrival:       string(e.Cfg.Arrival),
		Swapping:      e.Cfg.Swapping,
		VirtualCycles: cycles,
		VirtualMs:     float64(cycles) / (vtime.HzDefault / 1e3),
		Issued:        e.totIssued,
		Completed:     e.totCompleted,
		Censored:      e.totCensored,
		Unissued:      uint64(e.Cfg.Sessions) - e.totIssued,
		Alien:         e.alien,
		Overall:       latencyReport(&e.all),
		Dispatches:    st.Dispatches,
		Preemptions:   st.Preemptions,
		FaultsSent:    st.FaultsSent,
		Instructions:  st.Instructions,
	}
	if cycles > 0 {
		r.VirtualRPS = float64(e.totCompleted) * vtime.HzDefault / float64(cycles)
	}
	r.Classes = make([]ClassReport, 0, len(e.Classes))
	for i := range e.Classes {
		cl := &e.Classes[i]
		r.Deferred += cl.Deferred
		r.Classes = append(r.Classes, ClassReport{
			Name:      cl.Name,
			Sessions:  cl.Sessions,
			Servers:   len(cl.Servers),
			Issued:    cl.Issued,
			Completed: cl.Completed,
			Censored:  cl.Censored,
			Deferred:  cl.Deferred,
			Latency:   latencyReport(&cl.Hist),
		})
	}
	if sw := e.IM.Swapper; sw != nil {
		r.SwapOuts = sw.SwapOuts
		r.SwapIns = sw.SwapIns
		r.Evictions = sw.Evictions
		r.FaultsServiced = sw.FaultsServiced
		r.Compactions = sw.Compactions
		r.CompactMoves = sw.CompactMoves
	}
	if e.Inj != nil {
		r.InjectPlanned = len(e.Inj.Plan().Events)
		r.InjectFired = len(e.Inj.Fired())
		r.InjectByKind = e.Inj.FiredByKind()
	}
	if lg := e.IM.Ledger; lg != nil {
		lg.Close() // idempotent; seals the final short segment
		r.LedgerRoot = lg.RootHex()
		r.LedgerSegments = lg.Segments()
		r.LedgerEvents = lg.Recorded()
		r.LedgerDropped = lg.Dropped()
	}
	return r
}

// Fingerprint is the hex SHA-256 of the canonical JSON — a compact
// determinism witness for logs and self-checks.
func (r *Result) Fingerprint() string { return fingerprint(r) }

// canonicalJSON renders a result in its canonical byte form: indented
// JSON with a trailing newline. Two runs of the same Config produce
// identical bytes.
func canonicalJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func fingerprint(v any) string {
	b, err := canonicalJSON(v)
	if err != nil {
		return "unmarshalable:" + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
