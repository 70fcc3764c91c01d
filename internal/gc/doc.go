// Package gc is the group-communication system of paper §3, rebuilt from
// scratch as SAMOA microprotocols:
//
//	Membership ── view changes via atomic broadcast
//	ABcast     ── total-order broadcast: consensus on batches
//	Consensus  ── rotating-coordinator, majority-quorum consensus
//	RelCast    ── reliable broadcast (relay on first receipt, but not the casts ABcast orders)
//	RelComm    ── reliable point-to-point (seq/cumulative ack/retransmit/window)
//	FD         ── heartbeat failure detector
//	NetOut     ── egress buffer: one datagram per peer per computation
//	App        ── delivery upcalls to the embedding application
//
// Two broadcast flavours are offered: unordered (RBcast) and total
// (ABcast), the two that the paper's §3 stack is built from. The stack
// is not view-synchronous: a
// joiner may deliver messages that were in flight around its join, and
// misses pre-join history (ABcast fast-forwards the joiner's instance
// pointer via a SYNC message).
//
// A Site assembles one full stack per transport endpoint. Exactly as the paper
// prescribes (§4), every external event — a datagram arriving, an
// application broadcast, a timer firing — enters the stack through
// Isolated with a declared spec, and the configured concurrency controller
// enforces the isolation property across the computations.
//
// A datagram is a sequence of self-delimiting frames (msg.go). NetOut
// buffers the frames a computation sends and Site.run flushes them when
// the computation ends — one datagram per destination, no timer — and
// feeds a site's frames to itself straight back into the stack, past the
// transport and the ARQ (DESIGN.md §12.1).
//
// RelComm's acks are cumulative and ride the data: every data frame's
// header acknowledges, for its receiver, every seq up to the contiguous
// high-water mark it holds from that peer. A standalone ack leaves only
// when a duplicate arrives (the sender is retransmitting), when half of
// the send window is owed, or when the retransmission tick finds the peer
// still owed; a frame above a gap is owed a selective ack, paid by the
// tick while the gap stays open. Every data frame also carries the
// sender base — every seq up to it is acknowledged or abandoned — where a
// receiver starts its dedup window, so a fresh incarnation of a rejoined
// site, to which the survivors' sequence numbers continue, compacts it
// from the first frame.
//
// Microprotocol state carries no locks: handlers mutate plain maps and
// slices, and correctness under concurrency is exactly the isolation
// guarantee under test. Two exceptions. NetOut's buffer is shared with
// the flush, which runs outside any computation, and has its own lock.
// And the group view held by RelComm and RelCast is stored through atomic
// pointers: under the deliberately unsafe None (Cactus-model) controller
// used by experiment E6, view reads and view installation race
// *logically* — the paper's §3 "Problem" — and the atomic pointer keeps
// that a stale-read bug rather than an undefined data race.
//
// Consensus moves a proposal only when a coordinator may lack it. The
// round's coordinator proposes from its own pool, which in a stable view
// already holds every cast its origin sent it; other sites record their
// proposal and send nothing. A site that suspects anyone solicits the
// others, who then forward it the proposals for the instances it
// coordinates and relay it the decisions it may not hear, until the next
// view change; a joiner and the members treat each other the same way
// after a join. Every consensus message carries the sender's watermark
// (every instance below it is decided there); an instance below every
// member's watermark is forgotten, which bounds consensus and ABcast
// state (DESIGN.md §12.1). In a view of at most three sites the
// coordinator's ACCEPT carries its own vote, so an acceptor that accepts
// it holds a quorum and decides at once: an ordered cast is decided two
// message delays after it leaves any origin, and DECIDE goes only to the
// sites that refused the ACCEPT.
//
// Handlers never block on the network: every protocol is an event-driven
// state machine, so computations always terminate — the liveness
// precondition of the versioning algorithms' completion rules.
package gc
