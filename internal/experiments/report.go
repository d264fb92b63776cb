package experiments

// report.go holds the boilerplate every bench runner shares: the host
// header that leads each JSON artifact, the report writer, and the
// counters a workload run hands back. Benchmarks differ in what
// they measure; they must not differ in how honestly they describe the
// host that measured it.

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"repro/internal/gdp"
	"repro/internal/obj"
	"repro/internal/vtime"
)

// HostInfo leads every bench artifact. Degenerate is always present
// (never omitted): a GOMAXPROCS=1 host cannot overlap anything, so any
// multi-goroutine wall-clock reading from it measures the host, and a
// reader must be able to tell without forensics.
type HostInfo struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Degenerate bool   `json:"degenerate"`
	GoVersion  string `json:"go_version"`
}

// hostInfo snapshots the measuring host.
func hostInfo() HostInfo {
	return HostInfo{
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Degenerate: runtime.GOMAXPROCS(0) == 1,
		GoVersion:  runtime.Version(),
	}
}

// writeReport marshals rep as indented JSON with a trailing newline —
// the artifact format CI compares with cmp — and writes it to path.
func writeReport(path string, rep any) error {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

// benchStats carries what a workload run hands back besides its result:
// the trace compiler's profile counters, read once after the run
// completes, and RunNs, the host wall-clock of the run itself.
type benchStats struct {
	Trace gdp.TraceStats
	RunNs int64
}

// timedRun drives sys to idle and reports the host nanoseconds of the run
// alone. System construction — dominated by zeroing the memory arena — is
// a constant identical across corners; timing it alongside the run would
// dilute every wall-clock ratio toward 1 by the same additive term.
func timedRun(sys *gdp.System) (vtime.Cycles, int64, *obj.Fault) {
	start := time.Now()
	cy, f := sys.Run(0)
	return cy, time.Since(start).Nanoseconds(), f
}
