// Package cluster runs N independent iMAX kernels ("nodes") in one
// process and connects them with the only channel the multicomputer
// object-store design allows: passivated object graphs. Each node is a
// full core.IMAX — its own object table, SRO manager, type manager, and
// filing store — and nothing else is shared. A graph leaves a node as the
// sender's filing.Encode image, rides a wire buffer as those self-checking
// bytes, is checked on delivery, and re-enters by ActivateImage on the
// receiver, where user types re-bind to the *receiver's* live TDOs.
// Capabilities never cross: an AD is meaningless outside its table, so
// the wire carries structure and bytes, and each kernel mints its own
// authority on arrival — exactly the filing guarantee made load-bearing.
//
// Every shipped graph is tracked in a transfer ledger. At any instant a
// graph is on exactly one wire buffer, delivered to its receiver and not
// yet activated, or — once materialized (or refused) — nowhere at all.
// audit.CheckTransfers validates that single-ownership rule and
// reconciles activation-side object counts against passivation-side
// counts across the whole cluster; Snapshot produces its input by
// joining the ledger against ground truth (the actual queues) rather
// than trusting the ledger's own claims.
//
// A transfer's work splits between its two owners. Encoding and activation
// touch one kernel and belong to that Node, which recycles the buffers
// they use: image buffers and created lists. Graph ids, the ledger's
// flight states and the wire queues belong to the Cluster. Ship is a
// node's Encode then the cluster's Post; Materialize is a node's Activate
// then the cluster's CloseFlight. An image belongs to the wire from Post
// until its flight closes — refused by Deliver's check, or at
// CloseFlight — and then goes to the receiving node's pool. A created list
// belongs to whoever Activate returned it to until ReclaimGraph hands it
// back. Reserve fills the pools and sizes the queues and scratch before a
// run, for a bound on the graphs a node has in flight; a run inside that
// bound allocates nothing on the host.
package cluster

import (
	"fmt"
	"slices"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/filing"
	"repro/internal/obj"
)

// Kind tags a wire message with its role in the request/reply protocol
// layered on top of the transfer channel.
type Kind uint8

const (
	MsgRequest Kind = iota
	MsgReply
)

// Msg is one passivated graph in flight between two nodes, 48 bytes: its
// object count and node ids are as wide as the ledger's.
type Msg struct {
	Graph    uint64 // transfer-ledger id
	Seq      uint64 // caller correlation id (session, request, …)
	Img      []byte // filing.Encode output: self-checking image bytes
	Objects  uint32 // passivation-side object count
	From, To uint8
	Kind     Kind
}

type flightState uint8

const (
	flightWire flightState = iota
	flightDelivered
	flightClosed
)

// graphRec is one row of the transfer ledger, 12 bytes: the object counts
// fit in 32 bits because filing's image carries its count in 32, and the
// node ids in a byte because a cluster has at most MaxNodes nodes. A
// message's Kind is the wire's, not the ledger's.
type graphRec struct {
	objects, activated uint32
	from, to           uint8
	state              flightState
	failed             bool
}

// MaxNodes is the most nodes a cluster boots: a node id fits in a byte.
const MaxNodes = 256

// Node is one kernel of the cluster, with the buffers its half of a
// transfer recycles.
type Node struct {
	ID int
	IM *core.IMAX

	images    [][]byte   // image buffers, emptied
	lists     [][]obj.AD // created lists, emptied
	delivered []Msg      // Deliver's result for this node, reused
}

// Encode is the node half of Ship: it files the graph rooted at root into
// an image buffer from the node's pool and reports how many objects it
// filed. The image is the caller's until Post hands it to the wire.
func (n *Node) Encode(root obj.AD) ([]byte, int, error) {
	st := n.IM.Files
	filed0 := st.FiledObjects
	var buf []byte
	if k := len(n.images); k > 0 {
		buf, n.images = n.images[k-1], n.images[:k-1]
	}
	img, err := st.AppendEncode(buf, root)
	if err != nil {
		n.recycleImage(buf)
		return nil, 0, fmt.Errorf("cluster: passivating on node %d: %w", n.ID, err)
	}
	return img, int(st.FiledObjects - filed0), nil
}

// Activate is the node half of Materialize: it activates a delivered
// message's image into the node's global heap, listing the objects it made
// in a list from the node's pool. It neither checks nor closes the flight.
func (n *Node) Activate(m Msg) (obj.AD, []obj.AD, error) {
	var list []obj.AD
	if k := len(n.lists); k > 0 {
		list, n.lists = n.lists[k-1], n.lists[:k-1]
	}
	root, created, err := n.IM.Files.ActivateImage(m.Img, n.IM.Heap, list)
	if err != nil {
		n.recycleList(created)
		return obj.NilAD, nil, err
	}
	return root, created, nil
}

// Reclaim is ReclaimGraph on this node.
func (n *Node) Reclaim(created []obj.AD) error {
	sros := n.IM.SROs
	for i := len(created) - 1; i >= 0; i-- {
		if f := sros.Reclaim(created[i].Index); f != nil {
			return fmt.Errorf("cluster: reclaiming graph object %d on node %d: %w",
				created[i].Index, n.ID, error(f))
		}
	}
	n.recycleList(created)
	return nil
}

func (n *Node) recycleImage(b []byte) {
	if cap(b) > 0 {
		n.images = append(n.images, b[:0])
	}
}

func (n *Node) recycleList(l []obj.AD) {
	if cap(l) > 0 {
		n.lists = append(n.lists, l[:0])
	}
}

// Config assembles a cluster. Every node boots from the same core
// configuration with filing forced on (the transfer channel is the
// point); GC stays per-node and optional.
type Config struct {
	Nodes int
	Node  core.Config
}

// Cluster is N kernels and the wire between them.
type Cluster struct {
	Nodes []*Node

	// queues[from][to] is a FIFO of in-flight messages.
	queues [][][]Msg

	// graphs is the transfer ledger, indexed by graph id: ids are handed
	// out in posting order from 1, and entry 0 is the id no graph has.
	graphs []graphRec

	// Wire statistics.
	Shipped           uint64
	FailedActivations uint64
	WireBytes         uint64
}

// New boots the cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 || cfg.Nodes > MaxNodes {
		return nil, fmt.Errorf("cluster: need 1 to %d nodes, got %d", MaxNodes, cfg.Nodes)
	}
	nodeCfg := cfg.Node
	nodeCfg.Filing = true
	c := &Cluster{graphs: make([]graphRec, 1)}
	for i := 0; i < cfg.Nodes; i++ {
		im, err := core.Boot(nodeCfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: booting node %d: %w", i, err)
		}
		c.Nodes = append(c.Nodes, &Node{ID: i, IM: im})
	}
	c.queues = make([][][]Msg, cfg.Nodes)
	for i := range c.queues {
		c.queues[i] = make([][]Msg, cfg.Nodes)
	}
	return c, nil
}

// Ship encodes the graph rooted at root on node from and posts its image
// toward node to: node from's Encode, then Post. The live graph on the
// sender is untouched; shipping files a copy, it does not destroy the
// original.
func (c *Cluster) Ship(from, to int, root obj.AD, kind Kind, seq uint64) (uint64, error) {
	if from < 0 || from >= len(c.Nodes) || to < 0 || to >= len(c.Nodes) {
		return 0, fmt.Errorf("cluster: ship %d->%d outside cluster of %d nodes", from, to, len(c.Nodes))
	}
	img, objects, err := c.Nodes[from].Encode(root)
	if err != nil {
		return 0, err
	}
	return c.Post(from, to, kind, seq, img, objects), nil
}

// Reserve sizes the cluster for the next graphs graphs, of which at most
// flights are in flight from or to any one node at once, each of at most
// objects objects in an image of at most size bytes. It makes room in the
// transfer ledger for every graph and in each wire queue for flights
// messages; each node gets the same room in its Deliver slice, its filing
// scratch for the largest graph, and its pools flights image buffers and
// flights created lists of that size. Sending and receiving inside those
// bounds then grows nothing.
func (c *Cluster) Reserve(graphs, flights, size, objects int) {
	c.graphs = slices.Grow(c.graphs, graphs)
	for from, qs := range c.queues {
		for to := range qs {
			if to != from {
				qs[to] = slices.Grow(qs[to], flights)
			}
		}
	}
	for _, n := range c.Nodes {
		n.reserve(flights, len(c.Nodes)*flights, size, objects)
	}
}

// reserve fills the node's pools with flights image buffers of size bytes
// and flights created lists of objects entries, the buffers carved from one
// array and the lists from another, and gives the image pool room for
// pooled buffers: an image goes to its receiver's pool, so one node's pool
// may come to hold every buffer of the cluster.
func (n *Node) reserve(flights, pooled, size, objects int) {
	bufs := make([]byte, flights*size)
	n.images = slices.Grow(n.images, pooled)
	for i := range flights {
		n.images = append(n.images, bufs[i*size:i*size:(i+1)*size])
	}
	ads := make([]obj.AD, flights*objects)
	n.lists = slices.Grow(n.lists, flights)
	for i := range flights {
		n.lists = append(n.lists, ads[i*objects:i*objects:(i+1)*objects])
	}
	n.delivered = slices.Grow(n.delivered, flights)
	n.IM.Files.Reserve(objects)
}

// Post is the cluster half of Ship: it gives an encoded image of objects
// objects the next graph id, records its flight and enqueues it toward node
// to. The wire buffer is the image's sole owner from here to delivery.
// from and to must be nodes of the cluster.
func (c *Cluster) Post(from, to int, kind Kind, seq uint64, img []byte, objects int) uint64 {
	id := uint64(len(c.graphs))
	c.graphs = append(c.graphs, graphRec{
		objects: uint32(objects), from: uint8(from), to: uint8(to), state: flightWire,
	})
	c.queues[from][to] = append(c.queues[from][to], Msg{
		Graph: id, Seq: seq, Img: img, Objects: uint32(objects), From: uint8(from), To: uint8(to), Kind: kind,
	})
	c.Shipped++
	c.WireBytes += uint64(len(img))
	return id
}

// Deliver drains every queue addressed to node to, in deterministic
// order (sender 0 first, FIFO within a sender), checking each image. An
// image that fails its check (wire damage) closes its flight as failed,
// and node to's pool takes the buffer; clean messages come back ready to
// Materialize, in a slice of node to's that is the caller's until the
// next Deliver to that node.
func (c *Cluster) Deliver(to int) ([]Msg, error) {
	if to < 0 || to >= len(c.Nodes) {
		return nil, fmt.Errorf("cluster: deliver to %d outside cluster of %d nodes", to, len(c.Nodes))
	}
	n := c.Nodes[to]
	out := n.delivered[:0]
	for from := range c.Nodes {
		q := c.queues[from][to]
		for _, m := range q {
			rec := &c.graphs[m.Graph]
			if filing.CheckImage(m.Img) != nil {
				rec.state = flightClosed
				rec.failed = true
				c.FailedActivations++
				n.recycleImage(m.Img)
				continue
			}
			rec.state = flightDelivered
			out = append(out, m)
		}
		clear(q) // the queue keeps its room, not the images
		c.queues[from][to] = q[:0]
	}
	n.delivered = out
	return out, nil
}

// Materialize activates a delivered message's image on its destination
// node, allocating from the node's global heap, and closes the flight:
// node m.To's Activate, then CloseFlight. Success hands the graph to the
// live objects, listed in a created list that is the caller's until
// ReclaimGraph; failure (damage since delivery, corrupt edge, unbound
// type, exhausted claim — all unwound by filing) leaves it owned by no
// one, and the ledger records which. A message whose flight is not
// delivered — one already materialized among them — is refused untouched.
func (c *Cluster) Materialize(m Msg) (obj.AD, []obj.AD, error) {
	if m.Graph >= uint64(len(c.graphs)) || c.graphs[m.Graph].state != flightDelivered {
		return obj.NilAD, nil, fmt.Errorf("cluster: graph %d is not deliverable", m.Graph)
	}
	root, created, err := c.Nodes[m.To].Activate(m)
	c.CloseFlight(m, len(created), err)
	return root, created, err
}

// CloseFlight is the cluster half of Materialize: it closes a delivered
// message's flight with its activation's verdict — activated objects, or
// the error that refused the image — and node m.To's pool takes the image.
func (c *Cluster) CloseFlight(m Msg, activated int, err error) {
	rec := &c.graphs[m.Graph]
	rec.state = flightClosed
	if err != nil {
		rec.failed = true
		c.FailedActivations++
	} else {
		rec.activated = uint32(activated)
	}
	c.Nodes[m.To].recycleImage(m.Img)
}

// ReclaimGraph destroys an activated graph copy — newest object first —
// crediting the node's storage claims, and the node's pool takes the list
// back. The shard engine calls this once a migrated request has been
// forwarded or its reply copied back: shipped copies are working storage,
// not a second identity.
func (c *Cluster) ReclaimGraph(node int, created []obj.AD) error {
	if node < 0 || node >= len(c.Nodes) {
		return fmt.Errorf("cluster: reclaim on node %d outside cluster", node)
	}
	return c.Nodes[node].Reclaim(created)
}

// Snapshot joins the transfer ledger against observed ground truth —
// the wire queues as they are — for audit.CheckTransfers. It trusts the
// ledger for what was shipped and the queues for what is on the wire.
func (c *Cluster) Snapshot() audit.TransferSnapshot {
	wireCount := make([]int, len(c.graphs))
	for from := range c.queues {
		for to := range c.queues[from] {
			for _, m := range c.queues[from][to] {
				if m.Graph < uint64(len(wireCount)) {
					wireCount[m.Graph]++
				}
			}
		}
	}
	s := audit.TransferSnapshot{Nodes: len(c.Nodes)}
	for id := 1; id < len(c.graphs); id++ {
		rec := &c.graphs[id]
		state := audit.FlightWire
		switch rec.state {
		case flightDelivered:
			state = audit.FlightDelivered
		case flightClosed:
			state = audit.FlightClosed
		}
		s.Flights = append(s.Flights, audit.GraphFlight{
			ID: uint64(id), From: int(rec.from), To: int(rec.to), State: state,
			Objects: int(rec.objects), Activated: int(rec.activated), Failed: rec.failed,
			WireCopies: wireCount[id],
		})
	}
	for _, n := range c.Nodes {
		s.NodeFiledObjects = append(s.NodeFiledObjects, n.IM.Files.FiledObjects)
		s.NodeActivatedObjects = append(s.NodeActivatedObjects, n.IM.Files.ActivatedObjects)
	}
	return s
}

// PendingWire reports the number of messages sitting in wire buffers.
func (c *Cluster) PendingWire() int {
	n := 0
	for from := range c.queues {
		for to := range c.queues[from] {
			n += len(c.queues[from][to])
		}
	}
	return n
}
