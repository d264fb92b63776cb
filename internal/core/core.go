// Package core assembles iMAX: the operating system of the simulated 432.
// It is deliberately thin — iMAX is "configured by selecting those
// packages that provide the facilities needed in a particular application"
// (§6 of the paper), and this package is where that selection happens:
//
//   - the memory manager is chosen between the non-swapping and swapping
//     implementations of one specification (§6.2);
//   - the on-the-fly garbage collector is spawned as a daemon process
//     (§8.1) or left out for static embedded configurations;
//   - the basic process manager is always present; schedulers layer on it
//     by further selection (§6.1, internal/pm);
//   - the object filing store and the I/O system are optional packages
//     (§7.2, §6.3).
//
// core also implements the internal level discipline of §7.3: system
// processes declare a level, and the configuration refuses or audits
// violations of the fault rules ("Processes below level 3 of the system
// ... are in general not permitted to fault. Processes at level 2 are
// actually permitted a limited set of timeout faults while those at level
// 1 are not permitted even these.").
package core

import (
	"fmt"

	"repro/internal/filing"
	"repro/internal/gc"
	"repro/internal/gdp"
	"repro/internal/ledger"
	"repro/internal/mm"
	"repro/internal/obj"
	"repro/internal/pm"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/trace"
	"repro/internal/typedef"
	"repro/internal/vtime"
)

// SystemLevel classifies a system process under the §7.3 discipline.
type SystemLevel uint8

const (
	// LevelUser processes fault freely; faults deliver to their fault
	// ports.
	LevelUser SystemLevel = 0
	// Level3 system processes may fault; the virtual environment below
	// them is complete.
	Level3 SystemLevel = 3
	// Level2 processes are permitted only timeout faults.
	Level2 SystemLevel = 2
	// Level1 processes are not permitted any fault.
	Level1 SystemLevel = 1
)

// Config selects the packages of an iMAX configuration.
type Config struct {
	Processors  int
	MemoryBytes uint32

	// Swapping selects the swapping memory manager (§6.2); the
	// non-swapping release-1 implementation otherwise.
	Swapping bool

	// GC enables the on-the-fly collector daemon (§8.1).
	GC bool
	// GCWork is the daemon's marking work per scheduling step
	// (objects); 0 means a default of 64.
	GCWork int
	// GCInterval is the pause between collection cycles in cycles;
	// 0 means a default of 200000 (25 ms at 8 MHz).
	GCInterval vtime.Cycles

	// Filing enables the object filing store (§7.2).
	Filing bool

	// Trace enables the kernel event log (internal/trace) on the whole
	// system. When false, every hook site costs a single nil check.
	Trace bool
	// TraceCapacity bounds the event ring; 0 means trace.DefaultCapacity.
	TraceCapacity int

	// Ledger attaches the tamper-evident audit ledger (internal/ledger)
	// as the trace log's sink, sealing the full event stream into
	// Merkle-chained segments. Implies Trace.
	Ledger bool

	// DeadlineDispatch selects the driver's deadline-ordered (aging)
	// dispatching discipline instead of strict priority order — the
	// dispatching half of the pm "deadline" policy selection.
	DeadlineDispatch bool

	// NoExecCache disables the per-processor execution cache (see
	// internal/gdp); results are byte-identical either way, so this is a
	// debugging and benchmarking knob, not a semantic switch.
	NoExecCache bool
}

// IMAX is a configured, running system.
type IMAX struct {
	*gdp.System

	TDOs *typedef.Manager
	PM   *pm.Basic

	// MM is the selected memory-management implementation; application
	// code uses only this interface (§6.2). Swapper is non-nil when the
	// swapping implementation was selected and exposes its management
	// interface.
	MM      mm.Allocator
	Swapper *mm.Swapping

	// SegFaultPort receives segment faults when swapping is configured;
	// spawn user processes with it as their fault port to get
	// transparent swap-in.
	SegFaultPort obj.AD

	// Collector is non-nil when GC was configured; GCProc is the daemon.
	Collector *gc.Collector
	GCProc    obj.AD

	// Files is non-nil when filing was configured.
	Files *filing.Store

	// Directory is the pinned system root directory: objects linked
	// here (and everything they reach) survive collection.
	Directory obj.AD

	// TraceLog is the kernel event log when tracing was configured, else
	// nil (a nil log is a valid always-disabled sink).
	TraceLog *trace.Log

	// Ledger is the audit ledger sink when one was configured, else nil.
	// Close it (idempotent) before reading Bytes/Root for the complete
	// stream.
	Ledger *ledger.Sink

	levels obj.Side[SystemLevel]
}

// Boot assembles a system from the configuration.
func Boot(cfg Config) (*IMAX, error) {
	sys, err := gdp.New(gdp.Config{
		Processors:       cfg.Processors,
		MemoryBytes:      cfg.MemoryBytes,
		DeadlineDispatch: cfg.DeadlineDispatch,
		NoExecCache:      cfg.NoExecCache,
	})
	if err != nil {
		return nil, err
	}
	im := &IMAX{
		System: sys,
		TDOs:   sys.TDOs,
		levels: obj.NewSide[SystemLevel](sys.Table),
	}
	im.PM = pm.NewBasic(sys)
	if cfg.Trace || cfg.Ledger {
		im.TraceLog = trace.New(cfg.TraceCapacity)
		if cfg.Ledger {
			im.Ledger = ledger.NewSink(ledger.Config{})
			im.TraceLog.SetSink(im.Ledger)
		}
		sys.SetTracer(im.TraceLog)
	}

	// The boot objects are created straight through: the latch keeps the
	// first refusal, and Boot checks it once, at the end.
	var l obj.Latch
	im.Directory = l.AD(sys.SROs.Create(sys.Heap, obj.CreateSpec{
		Type:        obj.TypeGeneric,
		AccessSlots: 64,
		Pinned:      true,
	}))

	// Memory management by alternate implementation (§6.2).
	if cfg.Swapping {
		sw := mm.NewSwapping(sys.Table, sys.SROs)
		im.MM = sw
		im.Swapper = sw
		im.SegFaultPort = l.AD(sys.Ports.Create(sys.Heap, 64, port.FIFO))
		l.Keep(sys.Table.Pin(im.SegFaultPort))
		handler := l.AD(sys.SpawnNative(mm.FaultHandlerBody(sw, im.SegFaultPort, obj.NilAD), gdp.SpawnSpec{
			Priority: 14,
		}))
		// The segment-fault service runs at level 2: it may time out
		// but must never itself fault.
		l.Keep(im.RegisterSystemProcess(handler, Level2))
	} else {
		im.MM = mm.NewNonSwapping(sys.SROs)
	}

	// The collector daemon (§8.1).
	if cfg.GC {
		im.Collector = gc.New(sys.Table, sys.SROs, sys.Ports, im.TDOs)
		work := cfg.GCWork
		if work <= 0 {
			work = 64
		}
		interval := cfg.GCInterval
		if interval == 0 {
			interval = 200_000
		}
		im.GCProc = l.AD(sys.SpawnNative(gcBody(im.Collector, work, interval), gdp.SpawnSpec{
			Priority: 2, // background daemon
		}))
		l.Keep(im.RegisterSystemProcess(im.GCProc, Level3))
	}

	if cfg.Filing {
		im.Files = filing.NewStore(sys.Table, sys.SROs, im.TDOs)
	}
	if f := l.Fault(); f != nil {
		return nil, fmt.Errorf("core: boot: %w", f)
	}
	return im, nil
}

// gcBody wraps the collector state machine as a daemon process: bounded
// work per step while a cycle is in flight, a timer sleep between cycles.
func gcBody(c *gc.Collector, work int, interval vtime.Cycles) gdp.NativeBody {
	return gdp.NativeBodyFunc(func(sys *gdp.System, self obj.AD) (vtime.Cycles, gdp.BodyStatus, *obj.Fault) {
		spent, completed, f := c.Step(work)
		if f != nil {
			return spent, gdp.BodyYield, f
		}
		// Destruction-filter deliveries may have unblocked type
		// managers; return them to the mix (§8.2).
		for _, w := range c.DrainWakes() {
			sys.Wake(w)
		}
		if completed {
			sys.WakeAt(sys.Now()+interval, self)
			return spent, gdp.BodyWaiting, nil
		}
		return spent, gdp.BodyYield, nil
	})
}

// Collect runs one full synchronous collection — the stop-the-world
// baseline, and the convenience for configurations without the daemon.
func (im *IMAX) Collect() (vtime.Cycles, *obj.Fault) {
	c := im.Collector
	if c == nil {
		c = gc.New(im.Table, im.SROs, im.Ports, im.TDOs)
	}
	spent, f := c.Collect()
	if f != nil {
		return spent, f
	}
	for _, w := range c.DrainWakes() {
		im.Wake(w)
	}
	return spent, nil
}

// Publish links an object into the system directory under the given slot,
// making it a GC root.
func (im *IMAX) Publish(slot uint32, ad obj.AD) *obj.Fault {
	return im.Table.StoreAD(im.Directory, slot, ad)
}

// RegisterSystemProcess records the declared level of a system process
// and validates the static rules of §7.3: a level-1 process may not have
// a fault port at all (it is not permitted to fault, so giving it a fault
// service would hide violations).
func (im *IMAX) RegisterSystemProcess(p obj.AD, level SystemLevel) *obj.Fault {
	if _, f := im.Table.RequireType(p, obj.TypeProcess); f != nil {
		return f
	}
	if level == Level1 {
		fp, f := im.Procs.Link(p, process.SlotFaultPort)
		if f != nil {
			return f
		}
		if fp.Valid() {
			return obj.Faultf(obj.FaultOddity, p,
				"level-1 process configured with a fault port")
		}
	}
	im.levels.Put(p.Index, level)
	return nil
}

// LevelViolation describes a breach of the §7.3 fault discipline.
type LevelViolation struct {
	Process obj.AD
	Level   SystemLevel
	Code    obj.FaultCode
}

func (v LevelViolation) String() string {
	return fmt.Sprintf("level-%d process %v faulted with %v", v.Level, v.Process, v.Code)
}

// CheckLevels audits every registered system process against its declared
// level: a recorded fault on a level-1 process, or a non-timeout fault on
// a level-2 process, is a violation. Run it from tests and from the
// system health monitor. Violations come in object-index order: the walk
// is the table's. A level is recorded under its process's generation
// (obj.Side), so a slot a registered process has left says nothing about
// the process that took it.
func (im *IMAX) CheckLevels() []LevelViolation {
	var out []LevelViolation
	for i := 1; i < im.Table.Len(); i++ {
		level, ok := im.levels.Get(obj.Index(i))
		if !ok {
			continue
		}
		p, _ := im.Table.SystemAD(obj.Index(i))
		code, f := im.Procs.FaultCode(p)
		if f != nil || code == obj.FaultNone {
			continue
		}
		if level == Level1 || level == Level2 && code != obj.FaultTimeout {
			out = append(out, LevelViolation{Process: p, Level: level, Code: code})
		}
	}
	return out
}

// SealLedger closes the audit ledger and verifies the sealed bytes from
// scratch — structure, hash chain, Merkle root against the sink's — and
// against the live ring: every event the ring emitted is in the replay,
// kind by kind. The replay is what proofs and the replay-mode confinement
// check (audit.CheckConfinementFromLedger) are built from.
func (im *IMAX) SealLedger() (*ledger.Replay, error) {
	lg := im.Ledger
	lg.Close()
	rep, err := ledger.Verify(lg.Bytes())
	if err != nil {
		return nil, fmt.Errorf("sealed ledger does not verify: %w", err)
	}
	if rep.Root != lg.Root() {
		return nil, fmt.Errorf("replay root %x != sink root %s", rep.Root, lg.RootHex())
	}
	seq, counts := im.TraceLog.Snapshot()
	if lg.Dropped() == 0 && uint64(len(rep.Events)) != seq {
		return nil, fmt.Errorf("ledger holds %d events, ring emitted %d", len(rep.Events), seq)
	}
	for k, n := range counts {
		var got uint64
		if k < len(rep.Counts) {
			got = rep.Counts[k]
		}
		if k < len(rep.Dropped) {
			got += rep.Dropped[k]
		}
		if got != n {
			return nil, fmt.Errorf("kind %v: ledger accounts for %d events, ring counted %d", trace.Kind(k), got, n)
		}
	}
	return rep, nil
}
