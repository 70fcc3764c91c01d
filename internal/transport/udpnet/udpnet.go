// Package udpnet is the real-socket backend of the transport seam: UDP
// datagrams on loopback or a LAN, wire-framed and CRC-checked (frame.go),
// implementing the same transport.Transport contract as the in-process
// simulator (internal/simnet) — the battery in
// internal/transport/conformance holds both to it.
//
// One udpnet.Net instance hosts the cluster nodes bound in this process
// (usually exactly one, the cmd/samoa-node shape; NewCluster builds the
// N-process shape inside one test process) and knows the rest of the
// cluster only as UDP addresses. UDP keeps the substrate honest about
// what the paper's protocols must themselves provide: datagrams are
// lost, duplicated and reordered by the network, and the stacks above
// (ctp's ARQ, gc's RelComm) supply the reliability.
//
// What simnet guarantees that udpnet does not:
//
//   - in-line delivery — a simnet datagram is in its destination's inbox
//     before Send returns; a udpnet datagram crosses the kernel, whose
//     scheduling and buffers are not deterministic.
//   - omniscient stats — simnet counts why every datagram died; udpnet
//     sees only its own end of the socket.
//   - remote liveness — Crash/Restart/Crashed act on hosted nodes; a
//     remote process's crash is just silence, as on a real network.
//
// Neither backend injects faults: loss, corruption, delay and partitions
// come from wrapping either one in internal/transport/faultnet (real
// loopback loss is too rare to exercise retransmission on its own).
package udpnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Config describes one process's attachment to a cluster.
type Config struct {
	// Addrs lists one UDP address per node, indexed by NodeID. Hosted
	// nodes are bound to their entry (port 0 means kernel-assigned);
	// the rest are where datagrams for that node are sent.
	Addrs []string
	// Local lists the nodes this process hosts; nil means all of them.
	Local []transport.NodeID
	// Conns optionally provides pre-bound sockets for hosted nodes,
	// indexed by NodeID (nil entries bind Addrs[id] instead). This is
	// how a parent process hands inherited sockets to cmd/samoa-node
	// children, and how tests bind every port-0 socket up front so the
	// full address list exists before any node starts.
	Conns []net.PacketConn
	// InboxSize bounds each hosted node's receive queue (default 4096);
	// overflowing datagrams are dropped, like a full socket buffer.
	InboxSize int
}

// Net is a real-UDP transport. Safe for concurrent use.
type Net struct {
	cfg   Config
	nodes []*node

	mu     sync.Mutex // serializes Crash, Restart and Close
	closed atomic.Bool

	sent            atomic.Uint64
	delivered       atomic.Uint64
	corrupted       atomic.Uint64
	droppedCrashed  atomic.Uint64
	droppedOverflow atomic.Uint64
	droppedOversize atomic.Uint64
	sendErrors      atomic.Uint64
	recovered       atomic.Uint64
}

// nodeGen is one incarnation of a hosted node, exactly as in simnet: a
// crash closes quit (unblocking receivers) and the socket (dropping
// traffic); a restart installs a fresh generation with an empty inbox
// bound to the same address, so datagrams sent during the outage stay
// lost.
type nodeGen struct {
	conn  net.PacketConn
	inbox chan transport.Datagram
	quit  chan struct{}
}

// node is one cluster address; only hosted nodes carry a generation.
type node struct {
	id      transport.NodeID
	net     *Net
	hosted  bool
	crashed atomic.Bool
	addr    atomic.Pointer[net.UDPAddr]
	gen     atomic.Pointer[nodeGen]
}

// New binds the hosted nodes and starts their receive loops. On any
// bind or resolve failure it closes what it had bound and returns the
// error.
func New(cfg Config) (*Net, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("udpnet: Config.Addrs required")
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 4096
	}
	hosted := make(map[transport.NodeID]bool, len(cfg.Addrs))
	if cfg.Local == nil {
		for i := range cfg.Addrs {
			hosted[transport.NodeID(i)] = true
		}
	} else {
		for _, id := range cfg.Local {
			if int(id) < 0 || int(id) >= len(cfg.Addrs) {
				return nil, fmt.Errorf("udpnet: Local node %d out of range", id)
			}
			hosted[id] = true
		}
	}

	n := &Net{cfg: cfg}
	fail := func(err error) (*Net, error) {
		n.Close()
		return nil, err
	}
	for i, a := range cfg.Addrs {
		id := transport.NodeID(i)
		nd := &node{id: id, net: n, hosted: hosted[id]}
		n.nodes = append(n.nodes, nd)
		if !nd.hosted {
			ua, err := net.ResolveUDPAddr("udp", a)
			if err != nil {
				return fail(fmt.Errorf("udpnet: node %d addr %q: %w", i, a, err))
			}
			nd.addr.Store(ua)
			continue
		}
		var conn net.PacketConn
		if i < len(cfg.Conns) && cfg.Conns[i] != nil {
			conn = cfg.Conns[i]
		} else {
			var err error
			conn, err = net.ListenPacket("udp", a)
			if err != nil {
				return fail(fmt.Errorf("udpnet: bind node %d at %q: %w", i, a, err))
			}
		}
		ua, ok := conn.LocalAddr().(*net.UDPAddr)
		if !ok {
			conn.Close()
			return fail(fmt.Errorf("udpnet: node %d: %T is not a UDP socket", i, conn))
		}
		nd.addr.Store(ua)
		g := &nodeGen{
			conn:  conn,
			inbox: make(chan transport.Datagram, cfg.InboxSize),
			quit:  make(chan struct{}),
		}
		nd.gen.Store(g)
		go n.readLoop(nd, g)
	}
	return n, nil
}

// NewCluster binds n loopback nodes on kernel-assigned ports and returns
// one Net per node, each hosting exactly that node — the N-process
// deployment shape, inside one test process, with no port guessing: all
// sockets are bound before any transport is constructed.
func NewCluster(n int) ([]*Net, error) {
	conns := make([]net.PacketConn, n)
	addrs := make([]string, n)
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	for i := range conns {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("udpnet: bind node %d: %w", i, err)
		}
		conns[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	nets := make([]*Net, n)
	for i := range nets {
		cs := make([]net.PacketConn, n)
		cs[i] = conns[i]
		t, err := New(Config{
			Addrs: addrs,
			Local: []transport.NodeID{transport.NodeID(i)},
			Conns: cs,
		})
		if err != nil {
			for _, t := range nets[:i] {
				t.Close()
			}
			closeAll()
			return nil, err
		}
		nets[i] = t
	}
	return nets, nil
}

// Size reports the cluster's address-space size.
func (n *Net) Size() int { return len(n.nodes) }

// Addr reports a node's UDP address as currently known — for hosted
// nodes the concrete bound address (useful after binding port 0).
func (n *Net) Addr(id transport.NodeID) string { return n.node(id).addr.Load().String() }

func (n *Net) node(id transport.NodeID) *node {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("udpnet: no node %d", id))
	}
	return n.nodes[id]
}

// Endpoint returns a hosted node's attachment. It panics on an
// out-of-range or non-hosted ID.
func (n *Net) Endpoint(id transport.NodeID) transport.Endpoint {
	nd := n.node(id)
	if !nd.hosted {
		panic(fmt.Sprintf("udpnet: node %d is not hosted by this process", id))
	}
	return nd
}

// readLoop pumps one generation's socket into its inbox. It exits when
// the socket closes (crash or Close).
func (n *Net) readLoop(nd *node, g *nodeGen) {
	buf := make([]byte, MaxPayload+headerSize+crcSize+16)
	for {
		cnt, _, err := g.conn.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select { //samoa:ignore blocking — quit-checked retry on a real socket; non-blocking by its default arm
			case <-g.quit: //samoa:ignore blocking — the quit probe is what bounds the retry loop at crash/Close
				return
			default:
				continue // transient; UDP read errors are rare and non-fatal
			}
		}
		d, err := decodeFrame(buf[:cnt])
		if err != nil || d.To != nd.id {
			// Corrupt, truncated, alien or mis-addressed bytes never
			// reach the stack — the checksum covers the header, so a
			// flipped address byte lands here too.
			n.corrupted.Add(1)
			continue
		}
		d.Payload = append([]byte(nil), d.Payload...)
		select { //samoa:ignore blocking — socket pump hand-off; the default arm sheds load instead of blocking
		case g.inbox <- d: //samoa:ignore blocking — inbox enqueue never blocks (overflow is counted and dropped)
			n.delivered.Add(1)
		default:
			n.droppedOverflow.Add(1)
		}
	}
}

// send transmits from a hosted node, best-effort.
func (n *Net) send(from *node, to transport.NodeID, payload []byte) {
	n.sent.Add(1)
	dst := n.node(to)
	if from.crashed.Load() || (dst.hosted && dst.crashed.Load()) {
		n.droppedCrashed.Add(1)
		return
	}
	if len(payload) > MaxPayload {
		n.droppedOversize.Add(1)
		return
	}
	if n.closed.Load() {
		return
	}
	frame := encodeFrame(from.id, to, payload)
	if _, err := from.gen.Load().conn.WriteTo(frame, dst.addr.Load()); err != nil {
		n.sendErrors.Add(1)
	}
}

// Crash takes a hosted node down (no-op for non-hosted nodes: a remote
// process cannot be crashed from here).
func (n *Net) Crash(id transport.NodeID) {
	nd := n.node(id)
	if !nd.hosted {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() || nd.crashed.Load() {
		return
	}
	nd.crashed.Store(true)
	g := nd.gen.Load()
	close(g.quit)
	g.conn.Close()
}

// Restart revives a crashed hosted node: a fresh socket on the same
// address and an empty inbox — everything sent during the outage stays
// lost, mirroring simnet.Restart. It reports false when the node is not
// crashed, not hosted, the transport is closed, or the address could
// not be rebound.
func (n *Net) Restart(id transport.NodeID) bool {
	nd := n.node(id)
	if !nd.hosted {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() || !nd.crashed.Load() {
		return false
	}
	addr := nd.addr.Load().String()
	var conn net.PacketConn
	var err error
	// The old socket is closed, so the concrete port is free again —
	// but give the kernel a few chances in case the close is still
	// settling or another process raced onto the port.
	for attempt := 0; attempt < 5; attempt++ {
		if conn, err = net.ListenPacket("udp", addr); err == nil {
			break
		}
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
	}
	if err != nil {
		return false
	}
	g := &nodeGen{
		conn:  conn,
		inbox: make(chan transport.Datagram, n.cfg.InboxSize),
		quit:  make(chan struct{}),
	}
	nd.gen.Store(g)
	nd.crashed.Store(false)
	n.recovered.Add(1)
	go n.readLoop(nd, g)
	return true
}

// Crashed reports whether a hosted node is crashed (false for non-hosted
// nodes).
func (n *Net) Crashed(id transport.NodeID) bool {
	nd := n.node(id)
	return nd.hosted && nd.crashed.Load()
}

// Close shuts the transport down: hosted sockets close, receivers
// unblock, later sends are dropped and crashed nodes can no longer be
// restarted. Close is idempotent.
func (n *Net) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return
	}
	n.closed.Store(true)
	for _, nd := range n.nodes {
		// gen is nil only for nodes a failed New never finished binding.
		if g := nd.gen.Load(); nd.hosted && !nd.crashed.Load() && g != nil {
			close(g.quit)
			g.conn.Close()
		}
	}
}

// Stats returns a snapshot of the transport counters. Corrupted counts
// checksum-rejected inbound frames; loss the kernel or wire inflicted is
// invisible here (see the package comment).
func (n *Net) Stats() transport.Stats {
	return transport.Stats{
		Sent:            n.sent.Load(),
		Delivered:       n.delivered.Load(),
		Corrupted:       n.corrupted.Load(),
		DroppedCrashed:  n.droppedCrashed.Load(),
		DroppedOverflow: n.droppedOverflow.Load(),
		DroppedOversize: n.droppedOversize.Load(),
		SendErrors:      n.sendErrors.Load(),
		Recovered:       n.recovered.Load(),
	}
}

// ID reports the node's identifier.
func (nd *node) ID() transport.NodeID { return nd.id }

// Send transmits payload to another node, best-effort and non-blocking
// (UDP writes never block meaningfully). The payload is serialized
// before Send returns, so the caller may reuse its buffer.
func (nd *node) Send(to transport.NodeID, payload []byte) { nd.net.send(nd, to, payload) }

// Recv blocks until a datagram arrives, returning ok == false once the
// current incarnation has crashed or the transport closed. After a
// Restart, Recv reads from the new incarnation.
func (nd *node) Recv() (transport.Datagram, bool) {
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
			return transport.Datagram{}, false
		}
	}
}

// TryRecv returns a queued datagram without blocking.
func (nd *node) TryRecv() (transport.Datagram, bool) {
	select {
	case d := <-nd.gen.Load().inbox:
		return d, true
	default:
		return transport.Datagram{}, false
	}
}

// Compile-time checks: udpnet is a transport backend.
var (
	_ transport.Transport = (*Net)(nil)
	_ transport.Endpoint  = (*node)(nil)
)
