// Package gdp implements the simulated general data processor (GDP) and
// the lock-step multiprocessor driver that stands in for the 432's shared
// bus (see DESIGN.md, "Substitutions").
//
// The package supplies the *implicit* hardware operations of §2 and §5 of
// the paper: "ready processes are dispatched on processors automatically by
// the hardware via algorithms that involve processor, process, and
// dispatching port objects"; faulting processes are "sent back to software
// when various fault or scheduling conditions arise"; send/receive block
// and resume processes without software intervention.
//
// Each simulated processor owns a virtual cycle clock and executes bounded
// quanta in turn, so multiprocessor interleavings are real (all
// synchronisation in the layers above must be explicit, per §3) while runs
// stay deterministic and testable.
package gdp

import (
	"fmt"

	"repro/internal/domain"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/sro"
	"repro/internal/trace"
	"repro/internal/typedef"
	"repro/internal/vtime"
)

// DispatchCapacity bounds the number of ready processes queued at one
// dispatching port.
const DispatchCapacity = 1024

// DeadlineBase is the period, in cycles, that deadline dispatch scales by
// a ready process's priority (Config.DeadlineDispatch).
const DeadlineBase vtime.Cycles = 100_000

// Processor object data layout (diagnostic identity only; the live state
// is in the CPU struct, as the real processor's was on-chip).
const (
	procObjData = 8
)

// Processor object access slots: the roots the collector scans to find
// everything a running processor can reach.
const (
	cpuSlotCurrent  = 0 // currently bound process
	cpuSlotDispatch = 1 // dispatching port this processor draws from
	cpuSlots        = 2
)

// BodyStatus is the result of one scheduling step of a native process.
type BodyStatus uint8

const (
	// BodyContinue: the body has more work; keep it in the dispatch mix.
	BodyContinue BodyStatus = iota
	// BodyYield: no work right now; requeue it (it will run again on a
	// later dispatch).
	BodyYield
	// BodyWaiting: the body blocks; whoever wakes it must requeue it.
	BodyWaiting
	// BodyDone: the process terminates.
	BodyDone
)

// Injector is the deterministic fault-injection hook (internal/inject).
// The interpreter consults it before every instruction: when the
// system-wide executed-instruction count reaches NextAt, Fire runs against
// the machine as it stands at that instant, so every cache corner observes
// the identical machine and injected runs stay byte-for-byte replayable.
type Injector interface {
	// NextAt reports the system-wide instruction count at which the next
	// injection is due, or ^uint64(0) when the plan is exhausted. It must
	// be cheap and pure: the driver calls it per instruction.
	NextAt() uint64
	// Fire performs every injection due at the current instruction count
	// and advances past it (a Fire that left NextAt in the past would
	// fire forever). cpu is the processor about to execute, with a VM
	// process bound. A non-nil fault is delivered to that process exactly
	// as an instruction fault would be.
	Fire(s *System, cpu *CPU) *obj.Fault
}

// SetInjector installs the fault injector, or removes it with nil. Install
// it before running the workload; swapping injectors mid-run breaks the
// determinism argument.
func (s *System) SetInjector(i Injector) { s.inj = i }

// Reaper is the process manager as the terminate path sees it: every
// process that terminates is handed to Reap, after it was sent to its
// scheduler port, so that the manager lets go of what it keeps of the
// process (pm unlinks it from its parent's child list). Reap must not fault
// or charge cycles: termination is the hardware's, and what the manager
// cannot do it leaves as it was.
type Reaper interface {
	Reap(proc obj.AD)
}

// SetReaper installs the reaper, or removes it with nil.
func (s *System) SetReaper(r Reaper) { s.reaper = r }

// NativeBody is the Go body of a native process (the GC daemon, device
// drivers, schedulers — the parts of iMAX that are software, scheduled
// exactly like any other process per §8.1's "daemon process"). Each call
// performs a bounded chunk of work and reports the cycles it consumed.
type NativeBody interface {
	Step(sys *System, proc obj.AD) (vtime.Cycles, BodyStatus, *obj.Fault)
}

// NativeBodyFunc adapts a function to NativeBody.
type NativeBodyFunc func(sys *System, proc obj.AD) (vtime.Cycles, BodyStatus, *obj.Fault)

// Step implements NativeBody.
func (f NativeBodyFunc) Step(sys *System, proc obj.AD) (vtime.Cycles, BodyStatus, *obj.Fault) {
	return f(sys, proc)
}

// System is one 432 node: shared memory, the object table, and 1..N
// processors drawing from a common dispatching port.
type System struct {
	Table   *obj.Table
	SROs    *sro.Manager
	Ports   *port.Manager
	Procs   *process.Manager
	Domains *domain.Manager
	TDOs    *typedef.Manager

	// Heap is the system global heap (level 0).
	Heap obj.AD
	// Dispatch is the default dispatching port: a priority-discipline
	// port whose messages are process objects.
	Dispatch obj.AD

	CPUs []*CPU

	// Trace, when non-nil, observes every instruction after it
	// executes: processor id, executing process, the instruction, and
	// the fault it raised (nil for none). Tracing is for diagnosis and
	// the imax CLI; it sees the machine exactly as it ran, but slows
	// the simulation.
	Trace func(cpu int, proc obj.AD, in TraceEvent)

	bodies       obj.Side[NativeBody] // the Go body of each native process
	timers       []timer
	fired        []timer // fireTimers' scratch, kept for its capacity
	contention   vtime.Cycles
	busyThisStep int
	deadline     bool

	// xcOff disables the execution cache (Config.NoExecCache), forcing
	// every instruction down the uncached reference path.
	xcOff bool

	// decodes holds each code object as fetch has decoded it (exec.go).
	decodes obj.Side[decoded]

	// inj is the installed fault injector, nil in production runs.
	inj Injector
	// reaper is told of every termination (SetReaper), nil if none.
	reaper Reaper

	// damage keeps the first failure of the dispatcher's own transitions
	// (DESIGN.md §5): system damage, never the running process's fault.
	// Step returns it once set, and nothing clears it.
	damage obj.Latch

	// Stats.
	dispatches   uint64
	preemptions  uint64
	faultsSent   uint64
	instructions uint64
	primes       uint64
	slows        uint64 // execOneSlow calls, in no Stats: the tests' count of the reference's runs
}

// Config sizes a new system.
type Config struct {
	MemoryBytes uint32 // default 16 MB
	Processors  int    // default 1

	// BusContention, when non-zero, charges each executed instruction
	// this many extra cycles per *other* busy processor, modelling the
	// shared-memory bus every 432 processor arbitrated for. Zero (the
	// default) models the paper's idealised "factor of 10" regime; the
	// historical record of the 432 suggests the bus was the real
	// machine's bottleneck, and experiment E3's bus rows show the scaling
	// curve bending exactly as that would predict.
	BusContention vtime.Cycles

	// DeadlineDispatch selects deadline-ordered dispatching: each ready
	// process queues with deadline now + DeadlineBase/(priority+1), so high
	// priority still means quicker service but a starved low-priority
	// process's deadline eventually comes due — the aging behaviour of
	// the real 432's deadline-within-priority dispatching port. The
	// default is strict priority order (starvation possible by design;
	// resource control is a scheduler's job, §6.1).
	DeadlineDispatch bool

	// NoExecCache disables the per-CPU execution cache (xcache.go),
	// forcing the uncached reference interpreter. Results are identical
	// either way — the switch exists for benchmarking the cache and for
	// the differential determinism harnesses.
	NoExecCache bool
}

// New boots a system: memory, object table, the system global heap, the
// dispatching port, and the processor objects.
func New(cfg Config) (*System, error) {
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 16 << 20
	}
	if cfg.Processors <= 0 {
		cfg.Processors = 1
	}
	tab := obj.NewTable(cfg.MemoryBytes)
	sros := sro.NewManager(tab)
	// The boot objects are created straight through: the latch keeps the
	// first refusal, and New checks it once, at the end.
	var l obj.Latch
	heap := l.AD(sros.NewGlobalHeap(0))
	l.Keep(tab.Pin(heap))
	ports := port.NewManager(tab, sros)
	procs := process.NewManager(tab, sros)
	doms := domain.NewManager(tab, sros)
	tdos := typedef.NewManager(tab)

	discipline := port.Priority
	if cfg.DeadlineDispatch {
		discipline = port.Deadline
	}
	dispatch := l.AD(ports.Create(heap, DispatchCapacity, discipline))
	l.Keep(tab.Pin(dispatch))

	s := &System{
		Table:      tab,
		SROs:       sros,
		Ports:      ports,
		Procs:      procs,
		Domains:    doms,
		TDOs:       tdos,
		Heap:       heap,
		Dispatch:   dispatch,
		contention: cfg.BusContention,
		deadline:   cfg.DeadlineDispatch,
		xcOff:      cfg.NoExecCache,
		decodes:    obj.NewSide[decoded](tab),
		bodies:     obj.NewSide[NativeBody](tab),
	}
	for i := 0; i < cfg.Processors; i++ {
		s.CPUs = append(s.CPUs, s.addCPU(&l, i))
	}
	if f := l.Fault(); f != nil {
		return nil, fmt.Errorf("gdp: boot: %w", f)
	}
	return s, nil
}

// addCPU creates processor id's object, bound to the dispatching port, and
// keeps a refusal in l.
func (s *System) addCPU(l *obj.Latch, id int) *CPU {
	pobj := l.AD(s.SROs.Create(s.Heap, obj.CreateSpec{
		Type:        obj.TypeProcessor,
		DataLen:     procObjData,
		AccessSlots: cpuSlots,
		Pinned:      true,
	}))
	l.Keep(s.Table.WriteDWord(pobj, 0, uint32(id)))
	l.Keep(s.Table.StoreADSystem(pobj, cpuSlotDispatch, s.Dispatch))
	return &CPU{ID: id, Obj: pobj}
}

// SpawnSpec describes a process to start.
type SpawnSpec struct {
	Priority  uint16
	TimeSlice uint32 // cycles; 0 = never preempted
	FaultPort obj.AD // where the process goes when it faults
	SchedPort obj.AD // process-manager notification port
	Parent    obj.AD
	Heap      obj.AD // SRO to allocate from; default system heap
	// Args preload data registers r0..r3 of the initial context.
	Args [4]uint32
	// AArgs preload access registers a0..a3.
	AArgs [4]obj.AD
}

// Spawn creates a process executing entry 0 of the given domain and queues
// it at the dispatching port. The domain is checked before anything is
// created, and a first frame the heap cannot hold or an argument AD that
// does not resolve unwinds the process made for it, so a refused spawn
// leaves nothing behind. A refused queueing is system damage: Spawn returns
// the damage latch.
func (s *System) Spawn(dom obj.AD, spec SpawnSpec) (obj.AD, *obj.Fault) {
	ip, _, f := s.Domains.Entry(dom, 0)
	if f != nil {
		return obj.NilAD, f
	}
	p, f := s.newProcess(spec)
	if f != nil {
		return obj.NilAD, f
	}
	var cv process.Ctx
	if f := s.Procs.PushContext(p, dom, &cv); f != nil {
		s.damage.Keep(s.SROs.Reclaim(p.Index))
		return obj.NilAD, f
	}
	cv.SetIP(ip)
	for i, v := range spec.Args {
		cv.SetReg(uint8(i), v)
	}
	for i, ad := range spec.AArgs {
		if ad.Valid() {
			cv.SetAReg(uint8(i), ad)
		}
	}
	if f := cv.Fault(); f != nil {
		s.pop(p)
		s.damage.Keep(s.SROs.Reclaim(p.Index))
		return obj.NilAD, f
	}
	return p, s.launch(p, 0)
}

// SpawnNative creates a process whose body is Go code, scheduled like any
// other process. It returns the damage latch as Spawn does.
func (s *System) SpawnNative(body NativeBody, spec SpawnSpec) (obj.AD, *obj.Fault) {
	p, f := s.newProcess(spec)
	if f != nil {
		return obj.NilAD, f
	}
	s.bodies.Put(p.Index, body)
	return p, s.launch(p, 1)
}

// newProcess creates the process object of a spawn, from the spec's heap or
// the system's.
func (s *System) newProcess(spec SpawnSpec) (obj.AD, *obj.Fault) {
	heap := spec.Heap
	if !heap.Valid() {
		heap = s.Heap
	}
	return s.Procs.Create(heap, process.Spec{
		Priority:     spec.Priority,
		TimeSlice:    spec.TimeSlice,
		FaultPort:    spec.FaultPort,
		DispatchPort: s.Dispatch,
		SchedPort:    spec.SchedPort,
		Parent:       spec.Parent,
	})
}

// launch queues a new process at its dispatching port and logs the spawn;
// native is 1 for a Go body.
func (s *System) launch(p obj.AD, native uint32) *obj.Fault {
	s.MakeReady(p)
	if l := s.Table.Tracer(); l != nil {
		l.Emit(trace.EvSpawn, uint32(p.Index), native, 0)
	}
	return s.damage.Fault()
}

// MakeReady queues the process at its dispatching port with its priority
// as the key. This is the single hardware path by which a process enters
// the dispatch mix — wakeups, time-slice end, and explicit starts all
// funnel through it. A terminated process is left as it is. The process
// view's refusal and a full or refused dispatch port are system damage:
// MakeReady latches the first, and the next Step returns it.
func (s *System) MakeReady(p obj.AD) {
	var pv process.Proc
	s.Procs.Open(p, obj.RightRead, &pv)
	st, stops := pv.State(), pv.StopCount()
	dport, prio := pv.LoadAD(process.SlotDispatchPort), pv.Priority()
	if f := pv.Fault(); f != nil || st == process.StateTerminated {
		s.damage.Keep(f)
		return
	}
	// A process with stops outstanding stays out of the mix (§6.1): it
	// is parked in the stopped state and the process manager requeues
	// it on the matching start. This is the hook that lets stop/start
	// apply cleanly even to processes that were blocked at a port when
	// stopped — the wakeup funnels through here and parks them.
	if stops > 0 {
		pv.SetState(process.StateStopped)
		return
	}
	if !dport.Valid() {
		dport = s.Dispatch
	}
	pv.SetState(process.StateReady)
	key := uint32(prio)
	if s.deadline {
		// Deadline-within-priority: higher priority means a nearer
		// deadline, but every ready process's turn eventually comes
		// due — aging instead of starvation.
		key = uint32(s.Now() + DeadlineBase/vtime.Cycles(prio+1))
	}
	blocked, _, f := s.Ports.Send(dport, p, key, obj.NilAD)
	if f == nil && blocked {
		f = obj.Faultf(obj.FaultBounds, dport, "dispatch port overflow")
	}
	s.damage.Keep(f)
}

// SetTracer installs the kernel event log on the system and its object
// table; every subsystem built over the table picks it up from there. Pass
// nil to disable tracing.
func (s *System) SetTracer(l *trace.Log) { s.Table.SetTracer(l) }

// Tracer reports the installed kernel event log, possibly nil.
func (s *System) Tracer() *trace.Log { return s.Table.Tracer() }

// Stats reports system-wide event counts.
type Stats struct {
	Dispatches   uint64
	Preemptions  uint64
	FaultsSent   uint64
	Instructions uint64
	// Primes counts derivations of an execution-cache binding
	// (primeExecCache); the nocache corner never binds and reads 0.
	Primes uint64
}

// Stats returns the current counters.
func (s *System) Stats() Stats {
	return Stats{
		Dispatches:   s.dispatches,
		Preemptions:  s.preemptions,
		FaultsSent:   s.faultsSent,
		Instructions: s.instructions,
		Primes:       s.primes,
	}
}

// Now reports the system-wide virtual time: the maximum over processor
// clocks (they run in parallel).
func (s *System) Now() vtime.Cycles {
	var t vtime.Cycles
	for _, c := range s.CPUs {
		t = vtime.Max(t, c.Clock.Now())
	}
	return t
}

// TotalCycles reports the sum of all processor clocks: consumed machine
// capacity, for utilisation measures.
func (s *System) TotalCycles() vtime.Cycles {
	var t vtime.Cycles
	for _, c := range s.CPUs {
		t += c.Clock.Now()
	}
	return t
}
