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
// event message) less its layer tag. inner aliases the received datagram:
// the handler it is routed to runs synchronously and copies what it keeps.
type rcRecvd struct {
	sender transport.NodeID
	inner  []byte
}

// sent is a data frame sent to a peer and not yet cumulatively
// acknowledged, awaiting retransmission.
type sent struct {
	inner  []byte
	sentAt time.Time
	sacked bool // selectively acknowledged: it arrived, above a gap
}

// link is RelComm's state for one peer, both directions.
type link struct {
	// Receive side: the incarnation (epoch) the peer's data frames
	// currently carry, the dedup window within it, the cumulative ack
	// last sent back — seen.Low() - acked is what the peer is owed — and
	// the frames that arrived above a gap, owed a selective ack. A peer
	// that crash-restarts announces a fresh random epoch; the first
	// datagram of a new epoch resets the dedup window, so the restarted
	// sender's sequence space (starting over at 1) is not swallowed by
	// the dead incarnation's high-water mark.
	epoch uint32
	seen  dedupe.Seq
	acked uint64
	sacks []uint64

	// Send side: the last seq assigned; the base, every seq up to which
	// is acknowledged or abandoned; the frames base+1..nextSeq in seq
	// order (none for the site itself); and the sends waiting for window
	// space.
	nextSeq uint64
	base    uint64
	unacked []sent
	queued  [][]byte
}

// RelComm is the reliable point-to-point microprotocol of paper §3:
// sequence numbers, acknowledgements, retransmission, and the group-view
// filter ("the message is discarded if the target is not known"; on
// receipt, delivered upward only "if the sender is in the current group
// view"). That filter is the heart of experiment E6: a stale view here
// silently loses messages.
//
// Acks are cumulative — every seq up to the acknowledged one arrived —
// and ride the data. A peer is owed an ack once a data frame from it
// arrives, and is paid by the first of:
//
//  1. any data frame to it, whose header carries the cumulative ack;
//  2. a duplicate from it, which means it is retransmitting: ack at once;
//  3. half of the send window owed, so its flow control never stalls;
//  4. the retransmission tick (every RTO/2) finding it still owed.
//
// A frame that arrives above a gap is owed a selective ack, which acks
// it alone: the tick sends it if the gap is still open (a duplicate, at
// once), so the sender does not retransmit it with the gap. Because an
// owed ack leaves at most RTO/2 after its frame arrived and a sender
// retransmits only frames older than RTO, deferral alone never causes a
// retransmission (DESIGN.md §12.1).
//
// Every data frame also carries the sender base: every seq up to it is
// acknowledged or abandoned (its target left the view), so it will never
// be sent again. A receiver's dedup window starts there, which is what
// lets a fresh incarnation of a rejoined site — to which the survivors'
// sequence numbers continue — compact its window from the first frame.
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
	window int // max unacknowledged messages per peer
	ev     *events

	view atomic.Pointer[View]

	peers map[transport.NodeID]*link

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
		peers:  make(map[transport.NodeID]*link),
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
	l := rc.link(req.to)
	if len(l.unacked) >= rc.window {
		l.queued = append(l.queued, req.inner)
		return nil
	}
	return rc.transmit(ctx, req.to, l, req.inner)
}

func (rc *RelComm) link(id transport.NodeID) *link {
	l := rc.peers[id]
	if l == nil {
		l = &link{}
		rc.peers[id] = l
	}
	return l
}

// transmit assigns a sequence number, buffers for retransmission (unless
// the frame is this site's own), and sends the frame.
func (rc *RelComm) transmit(ctx *core.Context, to transport.NodeID, l *link, inner []byte) error {
	l.nextSeq++
	if to != rc.self {
		l.unacked = append(l.unacked, sent{inner: inner, sentAt: time.Now()})
	}
	return rc.sendData(ctx, to, l, l.nextSeq, inner)
}

// sendData hands NetOut a data frame carrying the base and, to a peer,
// the cumulative ack it is owed — which pays it.
func (rc *RelComm) sendData(ctx *core.Context, to transport.NodeID, l *link, seq uint64, inner []byte) error {
	f := frame{kind: dgData, epoch: rc.epoch, seq: seq, base: l.base, inner: inner}
	if to != rc.self {
		f.ackEpoch, f.ack = l.epoch, l.seen.Low()
		l.acked = f.ack
	}
	return ctx.Trigger(rc.ev.NetSend, outFrame{to: to, frame: f})
}

// drainQueue sends queued messages while the peer's window has space.
func (rc *RelComm) drainQueue(ctx *core.Context, to transport.NodeID, l *link) error {
	for len(l.queued) > 0 && len(l.unacked) < rc.window {
		inner := l.queued[0]
		l.queued[0] = nil
		l.queued = l.queued[1:]
		if !rc.view.Load().Contains(to) {
			rc.droppedStale.Add(1)
			continue
		}
		if err := rc.transmit(ctx, to, l, inner); err != nil {
			return err
		}
	}
	if len(l.queued) == 0 {
		l.queued = nil
	}
	return nil
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
			err = rc.recvData(ctx, d.From, &f)
		case dgAck, dgSack:
			err = rc.recvAck(ctx, d.From, f.kind, f.epoch, f.seq)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (rc *RelComm) recvData(ctx *core.Context, from transport.NodeID, f *frame) error {
	l := rc.link(from)
	if from != rc.self {
		if err := rc.recvAck(ctx, from, dgAck, f.ackEpoch, f.ack); err != nil {
			return err
		}
	}
	if l.epoch != f.epoch {
		// The peer restarted into a new incarnation: its sequence
		// space starts over, so the old dedup window would swallow
		// everything it now sends.
		l.epoch, l.seen, l.acked, l.sacks = f.epoch, dedupe.Seq{}, 0, nil
	}
	// Nothing up to the base will come (again), and nothing up to it is
	// owed.
	l.seen.Advance(f.base)
	l.acked = max(l.acked, f.base)
	fresh := l.seen.Mark(f.seq)
	if from != rc.self {
		if err := rc.oweAck(ctx, from, l, f.seq, fresh); err != nil {
			return err
		}
	}
	if !fresh || !rc.view.Load().Contains(from) || len(f.inner) == 0 {
		return nil
	}
	if et := rc.ev.up[f.inner[0]]; et != nil {
		return ctx.Trigger(et, rcRecvd{sender: from, inner: f.inner[1:]})
	}
	return nil
}

// oweAck applies the ack rules to a data frame that just arrived: what
// it is owed leaves at once only for a duplicate or half a window,
// otherwise it waits for a data frame or the tick.
func (rc *RelComm) oweAck(ctx *core.Context, from transport.NodeID, l *link, seq uint64, fresh bool) error {
	if seq > l.seen.Low() {
		l.sacks = append(l.sacks, seq)
	}
	switch {
	case !fresh:
		// The sender is retransmitting: the ack it waits for was lost.
		return rc.payAcks(ctx, from, l, true)
	case l.seen.Low()-l.acked >= uint64(rc.window+1)/2:
		return rc.payAcks(ctx, from, l, false)
	}
	return nil
}

// recvAck applies an ack from a peer — a dgAck up to seq, or a dgSack of
// seq alone — moving the base past every leading acknowledged frame, and
// fills the window it opens.
func (rc *RelComm) recvAck(ctx *core.Context, from transport.NodeID, kind uint8, epoch uint32, seq uint64) error {
	l := rc.peers[from]
	if epoch != rc.epoch || l == nil || seq <= l.base {
		return nil // for a previous incarnation of this site, or nothing new
	}
	i := seq - l.base // seq's position in unacked, from 1
	if i > uint64(len(l.unacked)) {
		return nil // never sent
	}
	n := 0
	if kind == dgAck {
		n = int(i)
	} else {
		l.unacked[i-1].sacked = true
	}
	for n < len(l.unacked) && l.unacked[n].sacked {
		n++
	}
	if n == 0 {
		return nil
	}
	m := copy(l.unacked, l.unacked[n:])
	clear(l.unacked[m:])
	l.unacked = l.unacked[:m]
	l.base += uint64(n)
	return rc.drainQueue(ctx, from, l)
}

// retransmit re-sends every unacknowledged message older than the RTO and
// pays every ack still owed (rule 4). It runs as its own timer-driven
// computation, so what it sends to one peer leaves coalesced like any
// other computation's frames.
func (rc *RelComm) retransmit(ctx *core.Context, _ core.Message) error {
	now := time.Now()
	for to, l := range rc.peers {
		for i := range l.unacked {
			s := &l.unacked[i]
			if s.sacked || now.Sub(s.sentAt) < rc.rto {
				continue
			}
			s.sentAt = now
			rc.retransmitted.Add(1)
			if err := rc.sendData(ctx, to, l, l.base+uint64(i)+1, s.inner); err != nil {
				return err
			}
		}
		if err := rc.payAcks(ctx, to, l, false); err != nil {
			return err
		}
	}
	return nil
}

// payAcks sends a peer a selective ack for each frame it sent that is
// still above a gap and the cumulative ack it is owed — also when it is
// owed nothing new, if forced.
func (rc *RelComm) payAcks(ctx *core.Context, to transport.NodeID, l *link, force bool) error {
	for _, seq := range l.sacks {
		if seq > l.seen.Low() {
			if err := ctx.Trigger(rc.ev.NetSend, outFrame{to: to, frame: frame{kind: dgSack, epoch: l.epoch, seq: seq}}); err != nil {
				return err
			}
		}
	}
	l.sacks = l.sacks[:0]
	if to == rc.self || (l.seen.Low() == l.acked && !force) {
		return nil
	}
	l.acked = l.seen.Low()
	return ctx.Trigger(rc.ev.NetSend, outFrame{to: to, frame: frame{kind: dgAck, epoch: l.epoch, seq: l.acked}})
}

// viewChange installs a new view and abandons what is unacknowledged or
// queued for removed sites: the base moves past it, so a later
// incarnation of the site starts its dedup window there.
func (rc *RelComm) viewChange(_ *core.Context, msg core.Message) error {
	v := msg.(*View)
	rc.view.Store(v)
	for to, l := range rc.peers {
		if to == rc.self || v.Contains(to) {
			continue
		}
		l.base, l.unacked = l.nextSeq, nil
		rc.droppedStale.Add(uint64(len(l.queued)))
		l.queued = nil
	}
	return nil
}

// DroppedStale reports sends dropped by the view filter (E6 observable).
func (rc *RelComm) DroppedStale() uint64 { return rc.droppedStale.Load() }
