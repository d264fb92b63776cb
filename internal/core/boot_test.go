package core

import (
	"testing"

	"repro/internal/obj"
)

// TestBootFailureModes: a configuration that cannot be satisfied reports
// an error rather than returning a half-built system.
func TestBootFailureModes(t *testing.T) {
	// Memory too small for even the boot objects.
	if _, err := Boot(Config{MemoryBytes: 64}); err == nil {
		t.Fatal("64-byte system booted")
	}
}

// TestBootAllPackages selects everything at once and checks each package
// is wired.
func TestBootAllPackages(t *testing.T) {
	im, err := Boot(Config{
		Processors:  3,
		MemoryBytes: 4 << 20,
		Swapping:    true,
		GC:          true,
		Filing:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(im.CPUs) != 3 {
		t.Errorf("CPUs = %d", len(im.CPUs))
	}
	if im.MM.Name() != "swapping" || im.Swapper == nil {
		t.Error("swapping manager not selected")
	}
	if im.Collector == nil || !im.GCProc.Valid() {
		t.Error("collector daemon not spawned")
	}
	if im.Files == nil {
		t.Error("filing store missing")
	}
	if !im.SegFaultPort.Valid() {
		t.Error("segment-fault port missing")
	}
	// The GC daemon is registered at level 3; the fault handler at 2.
	if l, ok := im.levels.Get(im.GCProc.Index); !ok || l != Level3 {
		t.Errorf("GC daemon level = %v, %v", l, ok)
	}
	// The directory is pinned and usable.
	ad, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	if f := im.Publish(63, ad); f != nil {
		t.Fatal(f)
	}
	got, f := im.Table.LoadAD(im.Directory, 63)
	if f != nil || got.Index != ad.Index {
		t.Fatalf("directory slot 63 = %v, %v", got, f)
	}
}

// TestCollectWithoutDaemon: the synchronous Collect path works on a
// configuration without the collector package.
func TestCollectWithoutDaemon(t *testing.T) {
	im, err := Boot(Config{})
	if err != nil {
		t.Fatal(err)
	}
	stray, _ := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8})
	if _, f := im.Collect(); f != nil {
		t.Fatal(f)
	}
	if _, f := im.Table.Resolve(stray); !obj.IsFault(f, obj.FaultInvalidAD) {
		t.Fatal("stray object survived daemon-less Collect")
	}
}
