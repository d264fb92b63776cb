package scenario

import (
	"testing"
	"unsafe"

	"repro/internal/obj"
)

// TestPerObjectRecords pins the records a world keeps one of per object and
// per session: an object descriptor is 32 bytes, two to a cache line and
// never straddling one, a session is at most 16, and a sharded session, a
// session and its serving node, at most 20. cluster's TestTransferRecord pins
// the record kept per shipped graph.
func TestPerObjectRecords(t *testing.T) {
	if n := unsafe.Sizeof(obj.Descriptor{}); n != 32 {
		t.Errorf("obj.Descriptor is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(Session{}); n > 16 {
		t.Errorf("Session is %d bytes, want at most 16", n)
	}
	if n := unsafe.Sizeof(shardSession{}); n > 20 {
		t.Errorf("shardSession is %d bytes, want at most 20", n)
	}
}
