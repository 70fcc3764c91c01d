// Package transport is the seam between the protocol stacks and the
// network that carries their datagrams. It is the interface extracted
// from the original in-process simulator (internal/simnet): unreliable,
// unordered datagram exchange between small-integer-addressed nodes,
// with crash/restart and close hooks and monotonic counters.
//
// Two backends implement it:
//
//   - internal/simnet — the deterministic in-process simulator: in-line
//     delivery, crash and restart. The test substrate.
//   - internal/transport/udpnet — real UDP sockets on loopback or a
//     LAN, with wire-framed, CRC-checked datagrams. The production
//     substrate behind cmd/samoa-node.
//
// Faults are not a backend's business: internal/transport/faultnet wraps
// either one and is the only source of injected loss, corruption,
// duplication, reordering, delay and partitions.
//
// Both backends, bare and wrapped, are held to the same behavioral
// contract by the battery in internal/transport/conformance; consumers
// (ctp.Endpoint, gc.Site and everything above them) compile against this
// package only and cannot tell the backends apart.
package transport

// NodeID identifies a node; IDs are 0..Size-1 across the cluster.
type NodeID int

// Datagram is one unreliable message.
type Datagram struct {
	From, To NodeID
	Payload  []byte
}

// Stats counts transport activity. All fields are monotonic. Backends
// fill in what they can observe: the simulator knows exactly why every
// datagram died, a real socket only sees its own end of the wire (a
// kernel- or switch-dropped packet is invisible, so real backends may
// under-report drops — never deliveries).
type Stats struct {
	// Sent counts Send calls, including ones that were then dropped.
	Sent uint64
	// Delivered counts datagrams enqueued into a receiver's inbox.
	Delivered uint64
	// Corrupted counts corrupted datagrams: injected by faultnet,
	// detected (and rejected) by checksum on real backends.
	Corrupted uint64
	// DroppedLoss counts datagrams dropped by injected loss.
	DroppedLoss uint64
	// DroppedPartition counts datagrams dropped by a partition.
	DroppedPartition uint64
	// DroppedCrashed counts datagrams dropped because an endpoint this
	// backend hosts was crashed.
	DroppedCrashed uint64
	// DroppedOverflow counts datagrams dropped at a full inbox.
	DroppedOverflow uint64
	// DroppedOversize counts sends rejected for exceeding the backend's
	// maximum datagram size (0 on the simulator, which has none).
	DroppedOversize uint64
	// SendErrors counts socket-level send failures (real backends only).
	SendErrors uint64
	// Recovered counts successful Restart calls.
	Recovered uint64
}

// Endpoint is one node's attachment to a transport: the handle a
// protocol stack sends and receives through. An Endpoint stays valid
// across Crash/Restart of its node — Recv simply reports closure for
// the crashed incarnation and reads from the new one after Restart.
type Endpoint interface {
	// ID reports the node's identifier.
	ID() NodeID
	// Send transmits payload to another node, best-effort: it never
	// blocks and reports no outcome. Payload bytes are copied (or
	// serialized) before Send returns, so the caller may reuse its
	// buffer. Sending to an unknown node is a programming error and
	// panics.
	Send(to NodeID, payload []byte)
	// Recv blocks until a datagram arrives. It returns ok == false once
	// the node's current incarnation has crashed or the transport
	// closed; after a Restart, calling Recv again reads from the new
	// incarnation.
	Recv() (Datagram, bool)
	// TryRecv returns a queued datagram without blocking.
	TryRecv() (Datagram, bool)
}

// Transport is the substrate: a cluster-wide address space of nodes, of
// which this instance hosts ("locally attaches") one or more. The
// simulator hosts every node; a udpnet instance hosts the node(s) bound
// in this process and knows the rest only as addresses. Crash, Restart
// and Endpoint address hosted nodes only.
//
// Implementations must be safe for concurrent use.
type Transport interface {
	// Size reports the number of nodes in the cluster's address space.
	Size() int
	// Endpoint returns the attachment of a hosted node. It panics on an
	// out-of-range or non-hosted ID (a construction-time programming
	// error, exactly like the simulator's out-of-range panic).
	Endpoint(id NodeID) Endpoint
	// Crash takes a hosted node down: its traffic is dropped and its
	// receivers unblock. The node stays down until Restart
	// (crash-recovery model). Crashing a non-hosted node is a no-op.
	Crash(id NodeID)
	// Restart revives a crashed hosted node with a fresh incarnation:
	// its inbox starts empty — everything sent while it was down stays
	// lost, as does anything queued at crash time — and it sends and
	// receives again afterwards. It reports false, and does nothing,
	// when the node is not crashed, not hosted, or the transport is
	// closed.
	Restart(id NodeID) bool
	// Crashed reports whether a hosted node is crashed (false for
	// non-hosted nodes, whose liveness is unknowable here).
	Crashed(id NodeID) bool
	// Stats returns a snapshot of the transport counters.
	Stats() Stats
	// Close shuts the transport down: subsequent sends are dropped, all
	// receivers unblock, and crashed nodes can no longer be restarted.
	// Close is idempotent.
	Close()
}

// Partitioner is the optional partition-injection capability. faultnet
// implements it over any backend; the backends themselves do not (a real
// partition is the network's doing, not the process's).
type Partitioner interface {
	// Partition splits the cluster: datagrams flow only within a group.
	// Nodes not listed in any group land in an implicit extra group
	// together.
	Partition(groups ...[]NodeID)
	// Heal removes any partition.
	Heal()
}
