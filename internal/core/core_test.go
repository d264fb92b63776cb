package core

import (
	"slices"
	"testing"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
)

func boot(t *testing.T, cfg Config) *IMAX {
	t.Helper()
	im, err := Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestBootDefaults(t *testing.T) {
	im := boot(t, Config{})
	if im.MM.Name() != "non-swapping" {
		t.Errorf("default MM = %s", im.MM.Name())
	}
	if im.Collector != nil || im.Files != nil {
		t.Error("optional packages present without selection")
	}
	if !im.Directory.Valid() {
		t.Error("no system directory")
	}
}

func TestBootSwappingSelection(t *testing.T) {
	im := boot(t, Config{Swapping: true})
	if im.MM.Name() != "swapping" {
		t.Errorf("MM = %s", im.MM.Name())
	}
	if im.Swapper == nil || !im.SegFaultPort.Valid() {
		t.Error("swapping management interface missing")
	}
	// The fault handler is registered at level 2.
	found := false
	for i := 1; i < im.Table.Len(); i++ {
		if l, ok := im.levels.Get(obj.Index(i)); ok && l == Level2 {
			found = true
		}
	}
	if !found {
		t.Error("segment-fault service not registered at level 2")
	}
}

func TestPublishMakesGCRoot(t *testing.T) {
	im := boot(t, Config{})
	kept, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	lost, _ := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f := im.Publish(0, kept); f != nil {
		t.Fatal(f)
	}
	if _, f := im.Collect(); f != nil {
		t.Fatal(f)
	}
	if _, f := im.Table.Resolve(kept); f != nil {
		t.Fatal("published object collected")
	}
	if _, f := im.Table.Resolve(lost); !obj.IsFault(f, obj.FaultInvalidAD) {
		t.Fatal("unpublished object survived")
	}
	got, f := im.Table.LoadAD(im.Directory, 0)
	if f != nil || got.Index != kept.Index {
		t.Fatalf("directory slot 0 = %v, %v", got, f)
	}
}

func TestGCDaemonCollectsWhileMutatorsRun(t *testing.T) {
	// The daemon reclaims garbage produced by a running VM process
	// without ever pausing it (§8.1).
	im := boot(t, Config{GC: true, GCWork: 64, GCInterval: 20_000})
	// An allocation-heavy loop: create objects and drop them.
	code, f := im.Domains.CreateCode(im.Heap, []isa.Instr{
		isa.MovI(4, 300), // iterations
		isa.MovI(2, 64),  // data bytes
		isa.MovI(3, 0),   // access slots
		isa.Create(1, 0, 2),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 3),
		isa.Halt(),
	})
	if f != nil {
		t.Fatal(f)
	}
	dom, _ := im.Domains.Create(im.Heap, code, []uint32{0})
	p, f := im.Spawn(dom, gdp.SpawnSpec{TimeSlice: 3_000, AArgs: [4]obj.AD{im.Heap}})
	if f != nil {
		t.Fatal(f)
	}
	done := func() bool {
		st, _ := im.Procs.StateOf(p)
		if st != process.StateTerminated {
			return false
		}
		return im.Collector.Stats().Cycles >= 2
	}
	if _, f := im.RunUntil(done, 500_000_000); f != nil {
		t.Fatalf("RunUntil: %v (gc stats %+v)", f, im.Collector.Stats())
	}
	if im.Collector.Stats().Reclaimed == 0 {
		t.Fatal("daemon reclaimed nothing")
	}
}

func TestLevelOneRefusesFaultPort(t *testing.T) {
	im := boot(t, Config{})
	fport, _ := im.Ports.Create(im.Heap, 4, port.FIFO)
	code, _ := im.Domains.CreateCode(im.Heap, []isa.Instr{isa.Halt()})
	dom, _ := im.Domains.Create(im.Heap, code, []uint32{0})
	p, _ := im.Spawn(dom, gdp.SpawnSpec{FaultPort: fport})
	if f := im.RegisterSystemProcess(p, Level1); !obj.IsFault(f, obj.FaultOddity) {
		t.Fatalf("level-1 with fault port accepted: %v", f)
	}
	p2, _ := im.Spawn(dom, gdp.SpawnSpec{})
	if f := im.RegisterSystemProcess(p2, Level1); f != nil {
		t.Fatalf("clean level-1 refused: %v", f)
	}
	if l, ok := im.levels.Get(p2.Index); !ok || l != Level1 {
		t.Fatalf("registered level = %v, %v", l, ok)
	}
}

func TestLevelAuditE13(t *testing.T) {
	// E13: a level-2 process may fault only with timeouts; level 1 not
	// at all; level 3 freely.
	im := boot(t, Config{})
	mk := func(code obj.FaultCode) obj.AD {
		prog, _ := im.Domains.CreateCode(im.Heap, []isa.Instr{
			isa.FaultInject(uint32(code)),
			isa.Halt(),
		})
		dom, _ := im.Domains.Create(im.Heap, prog, []uint32{0})
		p, _ := im.Spawn(dom, gdp.SpawnSpec{})
		return p
	}
	l1 := mk(obj.FaultTimeout) // any fault violates level 1
	l2ok := mk(obj.FaultTimeout)
	l2bad := mk(obj.FaultRights)
	l3 := mk(obj.FaultRights) // fine at level 3
	im.RegisterSystemProcess(l1, Level1)
	im.RegisterSystemProcess(l2ok, Level2)
	im.RegisterSystemProcess(l2bad, Level2)
	im.RegisterSystemProcess(l3, Level3)
	if _, f := im.Run(10_000_000); f != nil {
		t.Fatal(f)
	}
	violations := im.CheckLevels()
	if len(violations) != 2 {
		t.Fatalf("violations = %v", violations)
	}
	seen := map[obj.Index]bool{}
	for _, v := range violations {
		seen[v.Process.Index] = true
		if v.String() == "" {
			t.Error("empty violation string")
		}
	}
	if !seen[l1.Index] || !seen[l2bad.Index] {
		t.Fatalf("wrong violators: %v", violations)
	}
}

// TestCheckLevelsOrder: violations come in object-index order, the same
// on every call; they used to come in the levels map's iteration order.
func TestCheckLevelsOrder(t *testing.T) {
	im := boot(t, Config{})
	prog, _ := im.Domains.CreateCode(im.Heap, []isa.Instr{
		isa.FaultInject(uint32(obj.FaultRights)),
		isa.Halt(),
	})
	dom, _ := im.Domains.Create(im.Heap, prog, []uint32{0})
	var want []obj.Index
	for i := 0; i < 3; i++ {
		p, f := im.Spawn(dom, gdp.SpawnSpec{})
		if f != nil {
			t.Fatal(f)
		}
		im.RegisterSystemProcess(p, Level1)
		want = append(want, p.Index)
	}
	slices.Sort(want)
	if _, f := im.Run(10_000_000); f != nil {
		t.Fatal(f)
	}
	for call := 0; call < 20; call++ {
		var got []obj.Index
		for _, v := range im.CheckLevels() {
			got = append(got, v.Process.Index)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d: violators %v, want %v", call, got, want)
		}
	}
}

// TestCheckLevelsIgnoresReusedSlot: a registered system process that is
// reclaimed takes its level with it. The user process that reuses its table
// slot may fault as it likes; the levels used to be keyed by index alone,
// and CheckLevels reported the newcomer as a faulting level-2 process.
func TestCheckLevelsIgnoresReusedSlot(t *testing.T) {
	im := boot(t, Config{})
	sysproc, f := im.Procs.Create(im.Heap, process.Spec{})
	if f != nil {
		t.Fatal(f)
	}
	if f := im.RegisterSystemProcess(sysproc, Level2); f != nil {
		t.Fatal(f)
	}
	if f := im.SROs.Reclaim(sysproc.Index); f != nil {
		t.Fatal(f)
	}
	user, f := im.Procs.Create(im.Heap, process.Spec{})
	if f != nil {
		t.Fatal(f)
	}
	if user.Index != sysproc.Index {
		t.Fatalf("the new process took slot %d, not the reclaimed %d", user.Index, sysproc.Index)
	}
	var v process.Proc
	im.Procs.Open(user, obj.RightWrite, &v)
	if v.SetFault(obj.FaultRights, obj.NilIndex); v.Fault() != nil {
		t.Fatal(v.Fault())
	}
	if vs := im.CheckLevels(); len(vs) != 0 {
		t.Fatalf("a user process in a reused slot was audited as a system process: %v", vs)
	}
}

func TestEndToEndSwappingConfiguration(t *testing.T) {
	// A full configuration: swapping manager + GC + a VM workload whose
	// working set exceeds physical memory.
	im := boot(t, Config{
		Swapping:    true,
		MemoryBytes: 256 * 1024,
	})
	// Fill most of memory with pinned ballast via the directory, then
	// run a process that still needs room: evictions must carry it.
	var ballast []obj.AD
	for i := 0; i < 12; i++ {
		ad, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16 * 1024})
		if f != nil {
			t.Fatal(f)
		}
		if f := im.Publish(uint32(i), ad); f != nil {
			t.Fatal(f)
		}
		ballast = append(ballast, ad)
	}
	code, _ := im.Domains.CreateCode(im.Heap, []isa.Instr{
		isa.MovI(4, 8),
		isa.MovI(2, 16384),
		isa.MovI(3, 0),
		isa.Create(1, 0, 2),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 3),
		isa.Halt(),
	})
	dom, _ := im.Domains.Create(im.Heap, code, []uint32{0})
	// The process allocates through raw SRO create (the create
	// instruction), which cannot evict — give it a generous time slice
	// and pre-trigger eviction through the manager instead.
	for i := 0; i < 8; i++ {
		if _, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16 * 1024}); f != nil {
			t.Fatalf("managed allocation under pressure: %v", f)
		}
	}
	if im.Swapper.SwapOuts == 0 {
		t.Fatal("no evictions under 2× pressure")
	}
	// The ballast objects must all still be recoverable.
	for i, ad := range ballast {
		if f := im.Swapper.EnsureResident(ad.Index); f != nil {
			t.Fatalf("ballast %d unrecoverable: %v", i, f)
		}
	}
	_ = dom
}
