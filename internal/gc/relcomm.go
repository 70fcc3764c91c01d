package gc

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/arq"
	"repro/internal/core"
	"repro/internal/transport"
)

// rcSendReq asks RelComm to reliably send an inner payload to a site
// (the paper's SendOut event message: (m, site)).
type rcSendReq struct {
	to    transport.NodeID
	inner []byte
}

// rcRecvd is a reliably-delivered inner payload (the paper's FromRComm
// event message) less its layer tag. inner aliases the received datagram:
// the handler it is routed to runs synchronously and copies what it keeps.
type rcRecvd struct {
	sender transport.NodeID
	inner  []byte
}

// RelComm is the reliable point-to-point microprotocol of paper §3:
// sequence numbers, acknowledgements, retransmission, and the group-view
// filter ("the message is discarded if the target is not known"; on
// receipt, delivered upward only "if the sender is in the current group
// view"). That filter is the heart of experiment E6: a stale view here
// silently loses messages.
//
// The ARQ itself is one arq.Link per peer, whose doc states its rules.
// RelComm adds the group's part: the view filter, handing a delivered
// payload to the layer its tag names, and abandoning the link of a site
// that leaves the view, whose base then tells a later incarnation of the
// site where its dedup window starts.
//
// A site's frames to itself are exempt from the ARQ: NetOut hands them
// back in-process (Site.flush), where nothing can lose them, so they are
// numbered but neither buffered, acknowledged nor deduplicated.
//
// All state except the view is plain — isolation is its synchronisation.
// The view is an atomic pointer so that the deliberately unsafe None
// controller produces the paper's stale-view bug rather than an undefined
// data race.
type RelComm struct {
	mp      *core.Microprotocol
	self    transport.NodeID
	epoch   uint32 // this incarnation's identity, constant for the RelComm's life
	selfSeq uint64 // the last seq of a frame to the site itself
	rto     time.Duration
	window  int // max unacknowledged messages per peer
	ev      *events

	view atomic.Pointer[View]

	peers map[transport.NodeID]*arq.Link

	// droppedStale counts sends discarded because the target was not in
	// the view — the observable of the §3 Problem. retransmitted counts
	// data frames sent again after their RTO.
	droppedStale, retransmitted atomic.Uint64

	hSend, hRecv, hRetransmit, hViewChange *core.Handler
}

func newRelComm(self transport.NodeID, initial *View, rto time.Duration, window int, ev *events) *RelComm {
	rc := &RelComm{
		mp:     core.NewMicroprotocol("relcomm"),
		self:   self,
		epoch:  rand.Uint32(),
		rto:    rto,
		window: window,
		ev:     ev,
		peers:  make(map[transport.NodeID]*arq.Link),
	}
	rc.view.Store(initial)
	rc.hSend = rc.mp.AddHandler("send", rc.send).Emits(ev.NetSend)
	rc.hRecv = rc.mp.AddHandler("recv", rc.recv).Emits(ev.NetSend, ev.FromRComm, ev.ConsIn, ev.SyncIn)
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
	if req.to == rc.self {
		rc.selfSeq++
		return rc.emit(ctx, req.to, frame{Kind: dgData, Epoch: rc.epoch, Seq: rc.selfSeq, Inner: req.inner})
	}
	return rc.link(req.to).Send(req.inner, func(f frame) error { return rc.emit(ctx, req.to, f) })
}

func (rc *RelComm) link(id transport.NodeID) *arq.Link {
	l := rc.peers[id]
	if l == nil {
		l = arq.NewLink(rc.epoch, rc.window)
		rc.peers[id] = l
	}
	return l
}

// emit hands NetOut a frame for a site.
func (rc *RelComm) emit(ctx *core.Context, to transport.NodeID, f frame) error {
	return ctx.Trigger(rc.ev.NetSend, outFrame{to: to, frame: f})
}

// recv handles an incoming datagram, frame by frame: data frames are
// deduplicated and — if the sender is in the current view — handed to
// the layer their inner payload's tag names, and their headers' acks,
// like ack frames, clear the retransmission buffer. The acks it emits and
// whatever the frames' cascades send back share the computation's egress
// flush, so they return to the peer in one datagram.
//
// The layer runs synchronously: the frames of one datagram are one
// computation, isolation orders computations and not the threads within
// one, so each frame's cascade has to finish before the next frame's
// starts (an ACCEPT must not race the cast it rode in with).
//
// A frame is independent of the ones before it: a failed cascade is
// reported and the loop goes on. A malformed frame ends it — nothing
// after it can be delimited — with the frames before it handled.
func (rc *RelComm) recv(ctx *core.Context, msg core.Message) error {
	d := msg.(transport.Datagram)
	emit := func(f frame) error { return rc.emit(ctx, d.From, f) }
	var errs []error
	for p := d.Payload; len(p) > 0; {
		f, rest, err := decodeFrame(p)
		if err != nil {
			errs = append(errs, err)
			break
		}
		p = rest
		switch f.Kind {
		case dgData:
			err = rc.recvData(ctx, d.From, &f, emit)
		case dgAck, dgSack:
			if l := rc.peers[d.From]; l != nil {
				err = l.Acked(f.Kind, f.Epoch, f.Seq, emit)
			}
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (rc *RelComm) recvData(ctx *core.Context, from transport.NodeID, f *frame, emit func(frame) error) error {
	if from != rc.self {
		if fresh, err := rc.link(from).Receive(f, emit); !fresh || err != nil {
			return err
		}
	}
	if !rc.view.Load().Contains(from) || len(f.Inner) == 0 {
		return nil
	}
	if et := rc.ev.up[f.Inner[0]]; et != nil {
		return ctx.Trigger(et, rcRecvd{sender: from, inner: f.Inner[1:]})
	}
	return nil
}

// retransmit re-sends every unacknowledged message older than the RTO and
// pays every ack still owed. It runs as its own timer-driven computation,
// so what it sends to one peer leaves coalesced like any other
// computation's frames.
func (rc *RelComm) retransmit(ctx *core.Context, _ core.Message) error {
	now := time.Now()
	for to, l := range rc.peers {
		n, err := l.Tick(now, rc.rto, func(f frame) error { return rc.emit(ctx, to, f) })
		rc.retransmitted.Add(uint64(n))
		if err != nil {
			return err
		}
	}
	return nil
}

// viewChange installs a new view and abandons the links to removed sites.
func (rc *RelComm) viewChange(_ *core.Context, msg core.Message) error {
	v := msg.(*View)
	rc.view.Store(v)
	for to, l := range rc.peers {
		if !v.Contains(to) {
			rc.droppedStale.Add(uint64(l.Abandon()))
		}
	}
	return nil
}

// DroppedStale reports sends dropped by the view filter (E6 observable).
func (rc *RelComm) DroppedStale() uint64 { return rc.droppedStale.Load() }
