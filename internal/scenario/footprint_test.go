package scenario

import (
	"testing"
	"unsafe"

	"repro/internal/obj"
)

// TestPerObjectRecords pins the two records a world keeps one of per object
// and per session: an object descriptor is 32 bytes, two to a cache line and
// never straddling one, and a session is at most 28.
func TestPerObjectRecords(t *testing.T) {
	if n := unsafe.Sizeof(obj.Descriptor{}); n != 32 {
		t.Errorf("obj.Descriptor is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(Session{}); n > 28 {
		t.Errorf("Session is %d bytes, want at most 28", n)
	}
}
