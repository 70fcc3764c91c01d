package gc

import (
	"sync"

	"repro/internal/core"
	"repro/internal/transport"
)

// outFrame asks NetOut to transmit one frame to a site.
type outFrame struct {
	to    transport.NodeID
	kind  uint8 // dgData, dgAck or dgBeat
	epoch uint32
	seq   uint64
	inner []byte // dgData only
}

// beatDatagram is the heartbeat: one frame that is a datagram of its own.
var beatDatagram = []byte{dgBeat}

// outgoing is one datagram under construction: frames for one site, in
// NetSend order.
type outgoing struct {
	to   transport.NodeID
	data []byte
}

// NetOut is the egress microprotocol: the single place where the stack
// hands datagrams to the network. Keeping egress behind a microprotocol
// keeps the whole stack inside the event model, so routing graphs and
// visit bounds can account for sends.
//
// It is a site-level egress buffer. The send handler only appends the
// frame to its destination's datagram; whichever goroutine finishes a
// site-driven computation then calls flush (Site.run), which swaps the
// buffer out and puts one datagram per destination on the wire. An ack, a
// relayed cast and a consensus reply produced by one computation for one
// peer thus leave as one datagram, and no frame ever waits on a clock:
// the computation that produced it is the latest it can leave with.
//
// The buffer is shared by every computation of the site — under None or
// an early-releasing controller several append at once, and flush runs
// outside isolation — so it carries its own lock. A flush may therefore
// send frames of a computation that is still running; that is exactly
// what a send inside the handler used to do. Heartbeats bypass the buffer
// and are never coalesced with RelComm frames.
type NetOut struct {
	mp   *core.Microprotocol
	send *core.Handler
	node transport.Endpoint

	mu  sync.Mutex
	out []outgoing //samoa:guard mu
}

func newNetOut(node transport.Endpoint) *NetOut {
	n := &NetOut{
		mp:   core.NewMicroprotocol("netout"),
		node: node,
	}
	n.send = n.mp.AddHandler("send", func(_ *core.Context, msg core.Message) error {
		f := msg.(outFrame)
		if f.kind == dgBeat {
			n.node.Send(f.to, beatDatagram)
			return nil
		}
		n.mu.Lock() //samoa:ignore blocking — append-only critical section shared with flush, which runs outside any computation; never held across a send or a wait
		n.appendLocked(f)
		n.mu.Unlock()
		return nil
	}).Emits()
	return n
}

// appendLocked encodes f at the end of the newest datagram for its
// destination, starting a further one when that would pass maxDatagram
// (a single larger frame travels alone and is the transport's to refuse).
func (n *NetOut) appendLocked(f outFrame) {
	size := ackLen
	if f.kind == dgData {
		size = dataLen(f.inner)
	}
	var o *outgoing
	for i := len(n.out) - 1; i >= 0; i-- {
		if n.out[i].to == f.to {
			if len(n.out[i].data)+size <= maxDatagram {
				o = &n.out[i]
			}
			break
		}
	}
	if o == nil {
		n.out = append(n.out, outgoing{to: f.to, data: make([]byte, 0, size)})
		o = &n.out[len(n.out)-1]
	}
	if f.kind == dgData {
		o.data = appendData(o.data, f.epoch, f.seq, f.inner)
	} else {
		o.data = appendAck(o.data, f.epoch, f.seq)
	}
}

// flush transmits everything buffered for other sites and returns the
// datagrams addressed to this one, which never touch the transport: the
// caller feeds them back into the stack. Concurrent flushes each send
// what they swapped out; two of them may put datagrams for one peer on
// the wire in either order, which the unordered transport allows anyway.
func (n *NetOut) flush() (self [][]byte) {
	n.mu.Lock()
	out := n.out
	n.out = nil
	n.mu.Unlock()
	me := n.node.ID()
	for _, o := range out {
		if o.to == me {
			self = append(self, o.data)
		} else {
			n.node.Send(o.to, o.data)
		}
	}
	return self
}
