package mem_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// TestMemoryFootprintFollowsPlacement holds the host to what the simulated
// machine has placed, not to its configured size: a 64 MB memory whose
// segments all sit in its first 100 KB has made one chunk, and booting a
// 64 MB system raises the host's live heap by under 4 MB (by 64 MB when the
// memory was one flat array).
func TestMemoryFootprintFollowsPlacement(t *testing.T) {
	m := mem.New(64 << 20)
	for m.Used() < 100<<10 {
		if _, err := m.Alloc(4096); err != nil {
			t.Fatal(err)
		}
	}
	if got := mem.ChunksMade(m); got != 1 {
		t.Errorf("segments in the first 100 KB of a 64 MB memory made %d chunks, want 1", got)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	im, err := core.Boot(core.Config{Processors: 1, MemoryBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(im)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("booting a 64 MB system raised the live heap by %d bytes", grew)
	if grew >= 4<<20 {
		t.Errorf("booting a 64 MB system raised the live heap by %d bytes, want under 4 MB", grew)
	}
}
