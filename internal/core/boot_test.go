package core

import (
	"errors"
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

// TestBootMemorySweep boots every package at every memory size from 1 KiB
// to 32 KiB in 128-byte steps, across every point where a boot object is
// refused. Boot must refuse or build at every size, never panic, and the
// split between the two is pinned. A refusal unwraps to its *obj.Fault.
func TestBootMemorySweep(t *testing.T) {
	refused, builds := 0, 0
	for mem := uint32(1 << 10); mem <= 32<<10; mem += 128 {
		_, err := Boot(Config{MemoryBytes: mem, Swapping: true, GC: true, Filing: true})
		var f *obj.Fault
		if err != nil {
			refused++
			if !errors.As(err, &f) {
				t.Errorf("%d bytes: %v does not unwrap to an *obj.Fault", mem, err)
			}
		} else {
			builds++
		}
	}
	if refused != 169 || builds != 80 {
		t.Errorf("%d sizes refused and %d built, want 169 and 80", refused, builds)
	}
}
