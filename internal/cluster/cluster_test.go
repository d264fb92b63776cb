package cluster

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/filing"
	"repro/internal/obj"
)

func testConfig(nodes int) Config {
	return Config{
		Nodes: nodes,
		Node:  core.Config{Processors: 1, MemoryBytes: 1 << 22},
	}
}

func checkClean(t *testing.T, c *Cluster) {
	t.Helper()
	if vs := audit.CheckTransfers(c.Snapshot()); len(vs) > 0 {
		t.Fatalf("transfer accounting violated: %v", vs)
	}
}

func TestShipDeliverMaterializeRoundTrip(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// The same type name defined independently on every node: distinct
	// TDOs in distinct tables, which is all the wire format ever carries.
	tdos := make([]obj.AD, len(c.Nodes))
	for i, n := range c.Nodes {
		tdo, f := n.IM.TDOs.Define("session_rec", obj.LevelGlobal, obj.NilIndex)
		if f != nil {
			t.Fatal(f)
		}
		if f := n.IM.Files.BindType("session_rec", tdo); f != nil {
			t.Fatal(f)
		}
		tdos[i] = tdo
	}
	a := c.Nodes[0].IM

	// root (typed, data) -> child (generic, data); child -> root cycle.
	root, f := a.TDOs.CreateInstance(tdos[0], obj.CreateSpec{DataLen: 16, AccessSlots: 1})
	if f != nil {
		t.Fatal(f)
	}
	child, f := a.SROs.Create(a.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8, AccessSlots: 1})
	if f != nil {
		t.Fatal(f)
	}
	a.Table.WriteDWord(root, 0, 0xAAAA)
	a.Table.WriteDWord(child, 0, 0xBBBB)
	a.Table.StoreAD(root, 0, child)
	a.Table.StoreAD(child, 0, root)

	id, err := c.Ship(0, 1, root, MsgRequest, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c.PendingWire() != 1 {
		t.Fatalf("wire holds %d messages, want 1", c.PendingWire())
	}
	checkClean(t, c)

	// The sender's live graph is untouched by shipping.
	if v, _ := a.Table.ReadDWord(root, 0); v != 0xAAAA {
		t.Fatal("shipping mutated the original")
	}

	ds, err := c.Deliver(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Graph != id || ds[0].Seq != 7 || ds[0].Objects != 2 {
		t.Fatalf("delivery = %+v", ds)
	}
	if c.PendingWire() != 0 {
		t.Fatal("message still on the wire after delivery")
	}
	checkClean(t, c)

	b := c.Nodes[1].IM
	liveBefore := b.Table.Live()
	rootB, created, err := c.Materialize(ds[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 2 {
		t.Fatalf("materialized %d objects, want 2", len(created))
	}
	checkClean(t, c)

	if v, _ := b.Table.ReadDWord(rootB, 0); v != 0xAAAA {
		t.Fatalf("root data = %#x", v)
	}
	childB, f := b.Table.LoadAD(rootB, 0)
	if f != nil {
		t.Fatal(f)
	}
	if v, _ := b.Table.ReadDWord(childB, 0); v != 0xBBBB {
		t.Fatalf("child data = %#x", v)
	}
	back, f := b.Table.LoadAD(childB, 0)
	if f != nil {
		t.Fatal(f)
	}
	if back.Index != rootB.Index {
		t.Fatal("cycle broken crossing nodes")
	}
	// Typed by the receiver's own TDO, not the sender's.
	d := b.Table.DescriptorAt(rootB.Index)
	if d.UserType != tdos[1].Index {
		t.Fatalf("activated root typed by %d, want node 1's TDO %d", d.UserType, tdos[1].Index)
	}

	if err := c.ReclaimGraph(1, created); err != nil {
		t.Fatal(err)
	}
	if got := b.Table.Live(); got != liveBefore {
		t.Fatalf("live = %d after reclaim, want %d", got, liveBefore)
	}
	checkClean(t, c)
}

func TestUnboundTypeFailsActivationWithoutLeak(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a := c.Nodes[0].IM
	// Bind the type on the sender only.
	tdo, f := a.TDOs.Define("sender_only", obj.LevelGlobal, obj.NilIndex)
	if f != nil {
		t.Fatal(f)
	}
	if f := a.Files.BindType("sender_only", tdo); f != nil {
		t.Fatal(f)
	}
	root, f := a.TDOs.CreateInstance(tdo, obj.CreateSpec{DataLen: 4})
	if f != nil {
		t.Fatal(f)
	}
	if _, err := c.Ship(0, 1, root, MsgRequest, 1); err != nil {
		t.Fatal(err)
	}
	ds, err := c.Deliver(1)
	if err != nil {
		t.Fatal(err)
	}
	live := c.Nodes[1].IM.Table.Live()
	if _, _, err := c.Materialize(ds[0]); err == nil {
		t.Fatal("activation minted an unbound type")
	}
	if got := c.Nodes[1].IM.Table.Live(); got != live {
		t.Fatalf("failed materialization leaked: live %d -> %d", live, got)
	}
	if c.FailedActivations != 1 {
		t.Fatalf("FailedActivations = %d", c.FailedActivations)
	}
	checkClean(t, c)
}

func TestWireDamageSurfacesAtDelivery(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a := c.Nodes[0].IM
	root, f := a.SROs.Create(a.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
	if f != nil {
		t.Fatal(f)
	}
	if _, err := c.Ship(0, 1, root, MsgRequest, 1); err != nil {
		t.Fatal(err)
	}
	// Cosmic ray on the wire.
	c.queues[0][1][0].Img[9] ^= 0x80
	ds, err := c.Deliver(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Fatalf("damaged image delivered: %+v", ds)
	}
	if c.FailedActivations != 1 {
		t.Fatalf("FailedActivations = %d", c.FailedActivations)
	}
	checkClean(t, c)
}

func TestSnapshotCatchesSmuggledWireCopy(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a := c.Nodes[0].IM
	root, f := a.SROs.Create(a.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	if f != nil {
		t.Fatal(f)
	}
	if _, err := c.Ship(0, 1, root, MsgRequest, 1); err != nil {
		t.Fatal(err)
	}
	// A bug that duplicates a wire buffer must not pass the auditor.
	c.queues[0][1] = append(c.queues[0][1], c.queues[0][1][0])
	vs := audit.CheckTransfers(c.Snapshot())
	if len(vs) == 0 {
		t.Fatal("duplicated wire buffer went unnoticed")
	}
	if !strings.Contains(vs[0].Msg, "wire copies") {
		t.Fatalf("unexpected violation: %v", vs)
	}
}

// TestDamageAfterDeliveryFailsMaterialize: the receiver activates the
// bytes the wire carried, so damage after Deliver's check still surfaces
// at activation — and leaves node 1 exactly as it was.
func TestDamageAfterDeliveryFailsMaterialize(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := c.Nodes[0].IM, c.Nodes[1].IM
	root, f := a.SROs.Create(a.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16})
	if f != nil {
		t.Fatal(f)
	}
	if _, err := c.Ship(0, 1, root, MsgRequest, 1); err != nil {
		t.Fatal(err)
	}
	ds, err := c.Deliver(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(ds))
	}
	live := b.Table.Live()
	_, used, _, f := b.SROs.Usage(b.Heap)
	if f != nil {
		t.Fatal(f)
	}
	ds[0].Img[9] ^= 0x80
	if _, _, err := c.Materialize(ds[0]); !errors.Is(err, filing.ErrCorrupt) {
		t.Fatalf("damaged image materialized: err = %v, want ErrCorrupt", err)
	}
	if got := b.Table.Live(); got != live {
		t.Fatalf("failed materialization leaked: live %d -> %d", live, got)
	}
	if _, u, _, f := b.SROs.Usage(b.Heap); f != nil || u != used {
		t.Fatalf("failed materialization holds SRO quota: used %d -> %d (%v)", used, u, f)
	}
	if rec := c.graphs[ds[0].Graph]; rec.state != flightClosed || !rec.failed {
		t.Fatalf("flight = %+v, want closed and failed", rec)
	}
	if c.FailedActivations != 1 {
		t.Fatalf("FailedActivations = %d", c.FailedActivations)
	}
	checkClean(t, c)
}

// TestHopAllocBound pins the host allocations of one migration hop of a
// 64-byte object: Ship, Deliver, Materialize and ReclaimGraph. The hops
// alternate direction, as a migrated request and its reply do, so each
// node's pool gets back image buffers as fast as the node ships them.
func TestHopAllocBound(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var roots [2]obj.AD
	for i, n := range c.Nodes {
		var f *obj.Fault
		if roots[i], f = n.IM.SROs.Create(n.IM.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 64}); f != nil {
			t.Fatal(f)
		}
	}
	hops := 0
	hop := func() {
		from := hops % 2
		to := 1 - from
		hops++
		if _, err := c.Ship(from, to, roots[from], MsgRequest, 0); err != nil {
			t.Fatal(err)
		}
		ds, err := c.Deliver(to)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			_, created, err := c.Materialize(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.ReclaimGraph(to, created); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := testing.AllocsPerRun(200, hop); got > 0 {
		t.Fatalf("one hop allocates %.1f objects, want none", got)
	}
	checkClean(t, c)
}

// TestRecycledBuffers holds the ownership rules of the pools. Activation
// keeps no byte of an image, so an image buffer recycled into the next hop
// cannot reach the objects the last one made; a message materializes
// once; and a buffer Deliver refuses goes back to the pool without
// spoiling the hop that reuses it.
func TestRecycledBuffers(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	object := func(node int, fill byte) obj.AD {
		t.Helper()
		im := c.Nodes[node].IM
		ad, f := im.SROs.Create(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 32})
		if f != nil {
			t.Fatal(f)
		}
		if f := im.Table.WriteBytes(ad, 0, bytes.Repeat([]byte{fill}, 32)); f != nil {
			t.Fatal(f)
		}
		return ad
	}
	filled := func(node int, ad obj.AD, fill byte) bool {
		t.Helper()
		p, f := c.Nodes[node].IM.Table.ReadBytes(ad, 0, 32)
		return f == nil && bytes.Equal(p, bytes.Repeat([]byte{fill}, 32))
	}
	hop := func(from, to int, root obj.AD) (Msg, obj.AD) {
		t.Helper()
		if _, err := c.Ship(from, to, root, MsgRequest, 0); err != nil {
			t.Fatal(err)
		}
		ds, err := c.Deliver(to)
		if err != nil || len(ds) != 1 {
			t.Fatalf("delivered %d messages (%v), want 1", len(ds), err)
		}
		m := ds[0]
		got, _, err := c.Materialize(m)
		if err != nil {
			t.Fatal(err)
		}
		return m, got
	}

	// A's image goes to node 1's pool when its flight closes, and node 1
	// encodes B into it.
	mA, gotA := hop(0, 1, object(0, 0xAA))
	mB, gotB := hop(1, 0, object(1, 0xBB))
	if &mA.Img[0] != &mB.Img[0] {
		t.Fatal("graph B was not encoded into graph A's recycled buffer")
	}
	if !filled(1, gotA, 0xAA) || !filled(0, gotB, 0xBB) {
		t.Fatal("an activated graph changed when its image buffer was reused")
	}

	live := c.Nodes[0].IM.Table.Live()
	if _, _, err := c.Materialize(mB); err == nil {
		t.Fatal("a message materialized twice")
	}
	if c.Nodes[0].IM.Table.Live() != live || !filled(0, gotB, 0xBB) {
		t.Fatal("the refused second materialization touched node 0")
	}

	// Damage on the wire: Deliver refuses the image and node 1's pool
	// takes the buffer, which node 1's next shipment reuses.
	if _, err := c.Ship(0, 1, object(0, 0xCC), MsgRequest, 0); err != nil {
		t.Fatal(err)
	}
	damaged := c.queues[0][1][0].Img
	damaged[9] ^= 0x80
	if ds, err := c.Deliver(1); err != nil || len(ds) != 0 {
		t.Fatalf("damaged image delivered: %v (%v)", ds, err)
	}
	mD, gotD := hop(1, 0, object(1, 0xDD))
	if &mD.Img[0] != &damaged[0] {
		t.Fatal("node 1 did not ship from the buffer Deliver refused")
	}
	if !filled(0, gotD, 0xDD) {
		t.Fatal("the hop through a refused buffer carried other bytes")
	}
	if c.FailedActivations != 1 {
		t.Fatalf("FailedActivations = %d, want 1", c.FailedActivations)
	}
	checkClean(t, c)
}
