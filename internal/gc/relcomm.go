package gc

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dedupe"
	"repro/internal/transport"
)

// rcSendReq asks RelComm to reliably send an inner payload to a site
// (the paper's SendOut event message: (m, site)).
type rcSendReq struct {
	to    transport.NodeID
	inner []byte
}

// rcRecvd is a reliably-delivered inner payload (the paper's FromRComm
// event message). inner aliases the received datagram: the handlers bound
// to FromRComm run synchronously and copy what they keep.
type rcRecvd struct {
	sender transport.NodeID
	inner  []byte
}

// pendingSend is an unacknowledged data message awaiting retransmission.
type pendingSend struct {
	inner  []byte
	sentAt time.Time
}

// peerIn is the receive-side state for one peer: the incarnation (epoch)
// its datagrams currently carry and the dedup window within it. A peer
// that crash-restarts announces a fresh random epoch; the first datagram
// of a new epoch resets the dedup window, so the restarted sender's
// sequence space (starting over at 1) is not swallowed by the dead
// incarnation's high-water mark.
type peerIn struct {
	epoch uint32
	seen  dedupe.Seq
}

// RelComm is the reliable point-to-point microprotocol of paper §3:
// sequence numbers, acknowledgements, retransmission, and the group-view
// filter ("the message is discarded if the target is not known"; on
// receipt, delivered upward only "if the sender is in the current group
// view"). That filter is the heart of experiment E6: a stale view here
// silently loses messages.
//
// A site's frames to itself are exempt from the ARQ: NetOut hands them
// back in-process (Site.flush), where nothing can lose them, so they are
// neither buffered for retransmission nor acknowledged.
//
// All state except the view is plain — isolation is its synchronisation.
// The view is an atomic pointer so that the deliberately unsafe None
// controller produces the paper's stale-view bug rather than an undefined
// data race.
type RelComm struct {
	mp     *core.Microprotocol
	self   transport.NodeID
	epoch  uint32 // this incarnation's identity, constant for the RelComm's life
	rto    time.Duration
	window int // max unacknowledged messages per peer; <=0 = unlimited
	ev     *events

	view atomic.Pointer[View]

	nextSeq map[transport.NodeID]uint64
	pending map[transport.NodeID]map[uint64]*pendingSend
	queued  map[transport.NodeID][][]byte // flow control: waiting for window space
	peers   map[transport.NodeID]*peerIn

	// droppedStale counts sends discarded because the target was not in
	// the view — the observable of the §3 Problem.
	droppedStale atomic.Uint64

	hSend, hRecv, hRetransmit, hViewChange *core.Handler
}

func newRelComm(self transport.NodeID, initial *View, rto time.Duration, window int, ev *events) *RelComm {
	rc := &RelComm{
		mp:      core.NewMicroprotocol("relcomm"),
		self:    self,
		epoch:   rand.Uint32(),
		rto:     rto,
		window:  window,
		ev:      ev,
		nextSeq: make(map[transport.NodeID]uint64),
		pending: make(map[transport.NodeID]map[uint64]*pendingSend),
		queued:  make(map[transport.NodeID][][]byte),
		peers:   make(map[transport.NodeID]*peerIn),
	}
	rc.view.Store(initial)
	rc.hSend = rc.mp.AddHandler("send", rc.send).Emits(ev.NetSend)
	rc.hRecv = rc.mp.AddHandler("recv", rc.recv).Emits(ev.NetSend, ev.FromRComm)
	rc.hRetransmit = rc.mp.AddHandler("retransmit", rc.retransmit).Emits(ev.NetSend)
	rc.hViewChange = rc.mp.AddHandler("viewChange", rc.viewChange).Emits()
	return rc
}

// send implements the paper's "handler send (m, target): if (target in
// view) try to send m to target", plus flow control (paper §5 lists
// "message flow control" as part of the implementation): at most `window`
// messages per peer may be unacknowledged; the rest queue and flow as
// acks open the window — this is also what makes the view filter's
// "necessary to implement finite buffers" remark (§3) concrete.
func (rc *RelComm) send(ctx *core.Context, msg core.Message) error {
	req := msg.(rcSendReq)
	if !rc.view.Load().Contains(req.to) {
		rc.droppedStale.Add(1)
		return nil
	}
	if rc.window > 0 && len(rc.pending[req.to]) >= rc.window {
		rc.queued[req.to] = append(rc.queued[req.to], req.inner)
		return nil
	}
	return rc.transmit(ctx, req.to, req.inner)
}

// transmit assigns a sequence number, buffers for retransmission (unless
// the frame is this site's own), and hands the frame to NetOut.
func (rc *RelComm) transmit(ctx *core.Context, to transport.NodeID, inner []byte) error {
	rc.nextSeq[to]++
	seq := rc.nextSeq[to]
	if to != rc.self {
		p := rc.pending[to]
		if p == nil {
			p = make(map[uint64]*pendingSend)
			rc.pending[to] = p
		}
		p[seq] = &pendingSend{inner: inner, sentAt: time.Now()}
	}
	return ctx.Trigger(rc.ev.NetSend, outFrame{to: to, kind: dgData, epoch: rc.epoch, seq: seq, inner: inner})
}

// drainQueue sends queued messages while the peer's window has space.
func (rc *RelComm) drainQueue(ctx *core.Context, to transport.NodeID) error {
	for len(rc.queued[to]) > 0 && (rc.window <= 0 || len(rc.pending[to]) < rc.window) {
		inner := rc.queued[to][0]
		rc.queued[to] = rc.queued[to][1:]
		if !rc.view.Load().Contains(to) {
			rc.droppedStale.Add(1)
			continue
		}
		if err := rc.transmit(ctx, to, inner); err != nil {
			return err
		}
	}
	if len(rc.queued[to]) == 0 {
		delete(rc.queued, to)
	}
	return nil
}

// recv handles an incoming datagram, frame by frame: data frames are
// acknowledged, deduplicated and — if the sender is in the current view —
// handed upward via FromRComm; acks clear the retransmission buffer. The
// acks it emits and whatever the frames' cascades send back share the
// computation's egress flush, so they return to the peer in one datagram.
//
// FromRComm is triggered synchronously: the frames of one datagram are
// one computation, isolation orders computations and not the threads
// within one, so each frame's cascade has to finish before the next
// frame's starts (an ACCEPT must not race the cast it rode in with).
//
// A frame is independent of the ones before it: a failed cascade is
// reported and the loop goes on. A malformed frame ends it — nothing
// after it can be delimited — with the frames before it handled.
func (rc *RelComm) recv(ctx *core.Context, msg core.Message) error {
	d := msg.(transport.Datagram)
	var errs []error
	for p := d.Payload; len(p) > 0; {
		f, rest, err := decodeFrame(p)
		if err != nil {
			errs = append(errs, err)
			break
		}
		p = rest
		switch f.kind {
		case dgData:
			err = rc.recvData(ctx, d.From, f)
		case dgAck:
			err = rc.recvAck(ctx, d.From, f)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (rc *RelComm) recvData(ctx *core.Context, from transport.NodeID, f frame) error {
	// Ack unconditionally (duplicates mean the ack was lost), echoing
	// the sender's epoch so it can reject acks meant for a previous
	// incarnation of itself.
	if from != rc.self {
		if err := ctx.Trigger(rc.ev.NetSend, outFrame{to: from, kind: dgAck, epoch: f.epoch, seq: f.seq}); err != nil {
			return err
		}
	}
	p := rc.peers[from]
	if p == nil {
		p = &peerIn{epoch: f.epoch}
		rc.peers[from] = p
	} else if p.epoch != f.epoch {
		// The peer restarted into a new incarnation: its sequence
		// space starts over, so the old dedup window would swallow
		// everything it now sends.
		*p = peerIn{epoch: f.epoch}
	}
	if !p.seen.Mark(f.seq) {
		return nil
	}
	if !rc.view.Load().Contains(from) {
		return nil
	}
	return ctx.TriggerAll(rc.ev.FromRComm, rcRecvd{sender: from, inner: f.inner})
}

func (rc *RelComm) recvAck(ctx *core.Context, from transport.NodeID, f frame) error {
	if f.epoch != rc.epoch {
		return nil // ack for a previous incarnation of this site
	}
	if p := rc.pending[from]; p != nil {
		delete(p, f.seq)
	}
	return rc.drainQueue(ctx, from)
}

// retransmit re-sends every unacknowledged message older than the RTO.
// It runs as its own timer-driven computation, so what it re-sends to one
// peer leaves coalesced like any other computation's frames.
func (rc *RelComm) retransmit(ctx *core.Context, _ core.Message) error {
	now := time.Now()
	for to, msgs := range rc.pending {
		for seq, p := range msgs {
			if now.Sub(p.sentAt) < rc.rto {
				continue
			}
			p.sentAt = now
			if err := ctx.Trigger(rc.ev.NetSend, outFrame{to: to, kind: dgData, epoch: rc.epoch, seq: seq, inner: p.inner}); err != nil {
				return err
			}
		}
	}
	return nil
}

// viewChange installs a new view and stops retransmitting to (or queueing
// for) removed sites.
func (rc *RelComm) viewChange(_ *core.Context, msg core.Message) error {
	v := msg.(*View)
	rc.view.Store(v)
	for to := range rc.pending {
		if !v.Contains(to) {
			delete(rc.pending, to)
		}
	}
	for to := range rc.queued {
		if !v.Contains(to) {
			rc.droppedStale.Add(uint64(len(rc.queued[to])))
			delete(rc.queued, to)
		}
	}
	return nil
}

// Queued reports messages waiting for window space to the peer (tests).
func (rc *RelComm) Queued(to transport.NodeID) int { return len(rc.queued[to]) }

// DroppedStale reports sends dropped by the view filter (E6 observable).
func (rc *RelComm) DroppedStale() uint64 { return rc.droppedStale.Load() }
