package gc

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dedupe"
	"repro/internal/transport"
	"repro/internal/wire"
)

// RelCast is the reliable broadcast microprotocol of paper §3: to
// broadcast, send to every site in the view; on first receipt of a
// message, relay it (so delivery survives a mid-broadcast sender crash)
// and deliver it locally, to the layer that owns the cast's kind.
//
// The broadcast loop sends to every view member including the origin
// itself; the origin's own copy comes back as a self-delivered frame and
// is the local delivery. A first receiver relays to every view member
// except itself, the message's origin and the site the frame came from:
// all three already hold m, and the origin does not re-relay its own
// cast. The invariant that keeps the broadcast reliable is unchanged —
// every site that may lack m is still sent m by each correct
// first-receiver — so one correct receiver suffices for all correct
// members to get it, whatever the origin managed to send before
// crashing. The wave terminates because every site relays a given
// message at most once (the seen set).
//
// Casts ABcast orders (castApp, castViewChg) are not relayed: consensus
// carries every ordered cast's payload in PROPOSE, ACCEPT and DECIDE, so
// one correct receiver that pools m proposes it, and the DECIDE that
// orders m delivers it to every member — the relay's guarantee, from the
// layer above. The rule depends on the cast's kind alone.
type RelCast struct {
	mp   *core.Microprotocol
	self transport.NodeID
	ev   *events

	view atomic.Pointer[View]
	seen map[transport.NodeID]*dedupe.Seq // per-origin, high-water compacted
	seq  uint64                           // per-origin ID allocator for locally originated casts

	// afterViewChange is the E6 test hook: it runs after RelCast
	// installed a new view but before RelComm gets to (bind order), the
	// exact window of the paper's §3 Problem.
	afterViewChange func()

	hBcast, hRecv, hViewChange, hPeerReset *core.Handler
}

func newRelCast(self transport.NodeID, initial *View, ev *events, afterViewChange func()) *RelCast {
	rb := &RelCast{
		mp:              core.NewMicroprotocol("relcast"),
		self:            self,
		ev:              ev,
		seen:            make(map[transport.NodeID]*dedupe.Seq),
		afterViewChange: afterViewChange,
	}
	rb.view.Store(initial)
	rb.hBcast = rb.mp.AddHandler("bcast", rb.bcast).Emits(ev.SendOut)
	rb.hRecv = rb.mp.AddHandler("recv", rb.recv).Emits(ev.SendOut, ev.DeliverOut, ev.RDeliver)
	rb.hViewChange = rb.mp.AddHandler("viewChange", rb.viewChange).Emits()
	rb.hPeerReset = rb.mp.AddHandler("peerReset", rb.peerReset).Emits()
	return rb
}

// bcast implements "for all site in view: trigger SendOut (m, site)". A
// locally-originated message (zero ID) gets a fresh ID first.
func (rb *RelCast) bcast(ctx *core.Context, msg core.Message) error {
	m := msg.(*castMsg)
	if m.ID == (MsgID{}) {
		rb.seq++
		m.ID = MsgID{Origin: rb.self, Seq: rb.seq}
	}
	return rb.sendAll(ctx, m)
}

// sendAll sends m to every view member not listed in except.
func (rb *RelCast) sendAll(ctx *core.Context, m *castMsg, except ...transport.NodeID) error {
	var frame []byte // encoded for the first recipient: a relay often has none
members:
	for _, site := range rb.view.Load().Members() {
		for _, x := range except {
			if site == x {
				continue members
			}
		}
		if frame == nil {
			frame = encodeCastFrame(m)
		}
		if err := ctx.Trigger(rb.ev.SendOut, rcSendReq{to: site, inner: frame}); err != nil {
			return err
		}
	}
	return nil
}

// recv implements "if (new message m) then { bcast m; triggerAll
// DeliverOut m; }", with the relay narrowed to the sites that may lack m
// and skipped for the casts ABcast orders and for the origin's own copy,
// which bcast already sent to everyone (see RelCast). The delivery goes
// to the one layer that owns the cast's kind; a kind no layer owns is
// deduplicated and relayed, and delivered nowhere. The paper's
// DeliverOut is asynchronous; here it is synchronous for the reason
// RelComm.recv gives — the datagram's next frame must find this one's
// delivery finished.
func (rb *RelCast) recv(ctx *core.Context, msg core.Message) error {
	in := msg.(rcRecvd)
	r := wire.NewReader(in.inner)
	m := decodeCastMsg(r)
	if err := r.Err(); err != nil {
		return err
	}
	d := rb.seen[m.ID.Origin]
	if d == nil {
		d = &dedupe.Seq{}
		rb.seen[m.ID.Origin] = d
	}
	if !d.Mark(m.ID.Seq) {
		return nil
	}
	if m.Kind != castApp && m.Kind != castViewChg && m.ID.Origin != rb.self {
		if err := rb.sendAll(ctx, &m, rb.self, m.ID.Origin, in.sender); err != nil {
			return err
		}
	}
	if et := rb.ev.deliverOut[m.Kind]; et != nil {
		return ctx.Trigger(et, m)
	}
	return nil
}

// viewChange installs a new view.
func (rb *RelCast) viewChange(_ *core.Context, msg core.Message) error {
	rb.view.Store(msg.(*View))
	if rb.afterViewChange != nil {
		rb.afterViewChange()
	}
	return nil
}

// peerReset forgets a rejoining site's origin history. It runs inside
// the total-order delivery of the site's '+' view operation, so every
// member resets at the same point in the order — the fresh incarnation's
// message IDs (its per-origin sequence restarts at 1) would otherwise be
// swallowed as duplicates of the dead incarnation's.
func (rb *RelCast) peerReset(_ *core.Context, msg core.Message) error {
	delete(rb.seen, msg.(transport.NodeID))
	return nil
}
