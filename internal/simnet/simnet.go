// Package simnet is an in-memory message-passing network used as the
// substrate for the group-communication experiments.
//
// The paper evaluated J-SAMOA "on distributed machines" (§7); this package
// substitutes them with N in-process nodes whose datagrams are delivered
// in-line: a datagram is in its destination's inbox, in send order, before
// Send returns. simnet models only what happens to a node — crashes,
// restarts with an empty inbox, and drops at a full inbox. Loss,
// corruption, latency and partitions — the faults that exercise
// retransmission, checksums, timeouts and membership — are injected by
// wrapping the network in internal/transport/faultnet, the one fault layer
// over every backend.
//
// simnet is the deterministic-test backend of the transport seam: it
// implements transport.Transport (every node hosted in-process) and is held
// to the shared behavioral contract by internal/transport/conformance. The
// production backend over real sockets is internal/transport/udpnet.
package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// NodeID identifies a node; IDs are 0..Nodes-1.
type NodeID = transport.NodeID

// Config describes a network.
type Config struct {
	// Nodes is the number of nodes.
	Nodes int
	// Seed is ignored: simnet makes no random choices.
	//
	// Deprecated: seed injected faults with faultnet.Config.Seed.
	Seed int64
	// InboxSize bounds each node's receive queue (default 4096);
	// overflowing messages are dropped, like a full UDP socket buffer.
	InboxSize int
}

// Stats counts network activity. All fields are monotonic.
type Stats = transport.Stats

// Datagram is one unreliable message.
type Datagram = transport.Datagram

// Network is a simulated network of Nodes. Safe for concurrent use.
type Network struct {
	cfg   Config
	nodes []*Node

	mu     sync.Mutex // serializes Crash, Restart and Close
	closed atomic.Bool

	sent            atomic.Uint64
	delivered       atomic.Uint64
	droppedCrashed  atomic.Uint64
	droppedOverflow atomic.Uint64
	recovered       atomic.Uint64
}

// nodeGen is one incarnation of a node: a crash closes its quit channel
// (unblocking receivers and dropping traffic), a restart installs a fresh
// generation with an empty inbox, so messages sent while the node was
// down stay lost.
type nodeGen struct {
	inbox chan Datagram
	quit  chan struct{}
}

// Node is one endpoint of the network.
type Node struct {
	id      NodeID
	net     *Network
	gen     atomic.Pointer[nodeGen]
	crashed atomic.Bool
}

// New creates a network. It panics on a non-positive node count (a
// construction-time programming error).
func New(cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("simnet: invalid node count %d", cfg.Nodes))
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 4096
	}
	n := &Network{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		nd := &Node{id: NodeID(i), net: n}
		nd.gen.Store(&nodeGen{
			inbox: make(chan Datagram, cfg.InboxSize),
			quit:  make(chan struct{}),
		})
		n.nodes = append(n.nodes, nd)
	}
	return n
}

// Size reports the number of nodes.
func (n *Network) Size() int { return len(n.nodes) }

// Node returns the node with the given ID. It panics on an out-of-range
// ID.
func (n *Network) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("simnet: no node %d", id))
	}
	return n.nodes[id]
}

// Endpoint returns the node as a transport.Endpoint (the simulator hosts
// every node). It panics on an out-of-range ID.
func (n *Network) Endpoint(id NodeID) transport.Endpoint { return n.Node(id) }

// Compile-time checks: simnet is a full transport backend.
var (
	_ transport.Transport = (*Network)(nil)
	_ transport.Endpoint  = (*Node)(nil)
)

// Send delivers payload from one node into another's inbox, in-line. It
// drops the datagram when either end is crashed, the network is closed or
// the inbox is full. Payload bytes are copied, so the caller may reuse its
// buffer. Send never blocks and takes no lock.
func (n *Network) Send(from, to NodeID, payload []byte) {
	n.sent.Add(1)
	dst := n.Node(to)
	if n.Node(from).crashed.Load() || dst.crashed.Load() {
		n.droppedCrashed.Add(1)
		return
	}
	if n.closed.Load() {
		return
	}
	g := dst.gen.Load()
	select {
	case g.inbox <- Datagram{From: from, To: to, Payload: append([]byte(nil), payload...)}:
		n.delivered.Add(1)
	case <-g.quit: // crashed since the check above
		n.droppedCrashed.Add(1)
	default:
		n.droppedOverflow.Add(1)
	}
}

// Crash makes the node silently drop every message sent to or from it, and
// unblocks its receivers. A crashed node stays down until Restart revives
// it (crash-recovery model).
func (n *Network) Crash(id NodeID) {
	nd := n.Node(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() || nd.crashed.Load() {
		return
	}
	nd.crashed.Store(true)
	close(nd.gen.Load().quit)
}

// Restart revives a crashed node with a fresh incarnation: its inbox
// starts empty (everything sent while it was down stays lost, as do any
// datagrams it had queued at crash time), and it sends and receives again
// afterwards. It reports false — and does nothing — when the node is not
// crashed or the network is closed.
func (n *Network) Restart(id NodeID) bool {
	nd := n.Node(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() || !nd.crashed.Load() {
		return false
	}
	nd.gen.Store(&nodeGen{
		inbox: make(chan Datagram, n.cfg.InboxSize),
		quit:  make(chan struct{}),
	})
	nd.crashed.Store(false)
	n.recovered.Add(1)
	return true
}

// Crashed reports whether the node has crashed.
func (n *Network) Crashed(id NodeID) bool { return n.Node(id).crashed.Load() }

// Close shuts the network down: subsequent sends are dropped, all
// receivers unblock, and crashed nodes can no longer be restarted. Close
// is idempotent.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return
	}
	n.closed.Store(true)
	for _, nd := range n.nodes {
		if !nd.crashed.Load() {
			close(nd.gen.Load().quit)
		}
	}
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:            n.sent.Load(),
		Delivered:       n.delivered.Load(),
		DroppedCrashed:  n.droppedCrashed.Load(),
		DroppedOverflow: n.droppedOverflow.Load(),
		Recovered:       n.recovered.Load(),
	}
}

// ID reports the node's identifier.
func (nd *Node) ID() NodeID { return nd.id }

// Recv blocks until a datagram arrives. It returns ok == false once the
// node's current incarnation has crashed or the network closed (after
// draining nothing more). A receiver that gets ok == false may call Recv
// again after a Restart to read from the new incarnation.
func (nd *Node) Recv() (Datagram, bool) {
	g := nd.gen.Load()
	select {
	case d := <-g.inbox:
		return d, true
	case <-g.quit:
		// Drain anything already queued before reporting closure.
		select {
		case d := <-g.inbox:
			return d, true
		default:
			return Datagram{}, false
		}
	}
}

// TryRecv returns a queued datagram without blocking.
func (nd *Node) TryRecv() (Datagram, bool) {
	select {
	case d := <-nd.gen.Load().inbox:
		return d, true
	default:
		return Datagram{}, false
	}
}

// Send is shorthand for sending from this node.
func (nd *Node) Send(to NodeID, payload []byte) { nd.net.Send(nd.id, to, payload) }
