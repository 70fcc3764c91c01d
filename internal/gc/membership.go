package gc

import (
	"repro/internal/core"
	"repro/internal/transport"
)

// joinLeaveReq asks Membership to add ('+') or remove ('-') a site.
type joinLeaveReq struct {
	op   byte
	site transport.NodeID
}

// Membership maintains the group view (paper §3): join/leave operations
// are atomically broadcast, so every site applies them in the same total
// order; each delivery transforms the view and propagates it to all
// interested microprotocols with a synchronous triggerAll of ViewChange —
// verbatim the paper's Membership pseudocode.
type Membership struct {
	mp   *core.Microprotocol
	self transport.NodeID
	ev   *events

	view *View

	hJoinLeave, hDeliverView *core.Handler
}

func newMembership(self transport.NodeID, initial *View, ev *events) *Membership {
	m := &Membership{
		mp:   core.NewMicroprotocol("membership"),
		self: self,
		ev:   ev,
		view: initial,
	}
	m.hJoinLeave = m.mp.AddHandler("joinleave", m.joinleave).Emits(ev.ABcastEv)
	m.hDeliverView = m.mp.AddHandler("deliverView", m.deliverView).Emits(ev.ViewChange, ev.PeerReset, ev.SyncReq)
	return m
}

// joinleave implements "handler joinleave (op, site) trigger ABcast [op
// site]".
func (m *Membership) joinleave(ctx *core.Context, msg core.Message) error {
	req := msg.(joinLeaveReq)
	return ctx.Trigger(m.ev.ABcastEv, abcastReq{kind: castViewChg, op: req.op, site: req.site})
}

// deliverView implements "handler deliverView (op, site) { view = view op
// site; triggerAll ViewChange view; }". Non-membership deliveries on
// ADeliver are ignored.
func (m *Membership) deliverView(ctx *core.Context, msg core.Message) error {
	cm := msg.(CastMsg)
	if cm.Kind != castViewChg {
		return nil
	}
	m.view = m.view.Apply(cm.Op, cm.Site)
	if err := ctx.TriggerAll(m.ev.ViewChange, m.view); err != nil {
		return err
	}
	// Every established member tells a joiner where the total order
	// resumes, with the application snapshot attached (idempotent at the
	// receiver, so no coordinator needed). First, forget the joiner's
	// previous incarnation: this runs at the same total-order point on
	// every member, so a crash-restarted site's restarted message IDs
	// dedup identically everywhere.
	if cm.Op == '+' && cm.Site != m.self {
		if err := ctx.TriggerAll(m.ev.PeerReset, cm.Site); err != nil {
			return err
		}
		return ctx.Trigger(m.ev.SyncReq, cm.Site)
	}
	return nil
}

// View returns membership's current view (for inspection between
// computations).
func (m *Membership) View() *View { return m.view }
