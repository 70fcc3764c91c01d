package gc

import "repro/internal/core"

// events holds one site's event types — first-class values passed to the
// microprotocol constructors, exactly as the paper's Protocol parameters
// (e.g. "Protocol RelCast (SendOut, DeliverOut, Bcast, FromRComm,
// ViewChange : Event)").
//
// Each event a producer routes has one consumer, which binds it alone and
// never sees another layer's message. RelComm picks the upward event by
// an inner payload's layer tag (up), RelCast the delivery event by a
// cast's kind (deliverOut), ABcast the ordered-delivery event by the kind
// (adeliver). Every byte indexes the tables; a byte no layer owns, which
// a peer can put on the wire, finds nil and is delivered nowhere.
type events struct {
	FromNet     *core.EventType // transport.Datagram → relcomm.recv
	NetSend     *core.EventType // outFrame → netout.send
	SendOut     *core.EventType // rcSendReq → relcomm.send
	FromRComm   *core.EventType // rcRecvd (layerRelCast) → relcast.recv
	ConsIn      *core.EventType // rcRecvd (layerConsensus) → consensus.recv
	SyncIn      *core.EventType // rcRecvd (layerSync) → abcast.sync
	Bcast       *core.EventType // *castMsg → relcast.bcast
	DeliverOut  *core.EventType // castMsg (castApp, castViewChg) → abcast.recv
	RDeliver    *core.EventType // castMsg (castRApp) → app.rdeliver
	ABcastEv    *core.EventType // abcastReq → abcast.abcast
	ProposeEv   *core.EventType // proposeReq → consensus.propose
	Decide      *core.EventType // decision → abcast.onDecide
	ADeliver    *core.EventType // castMsg (castApp) → app.deliver
	DeliverView *core.EventType // castMsg (castViewChg) → membership.deliverView
	ViewChange  *core.EventType // *View → relcast, relcomm, fd, consensus, app
	JoinLeave   *core.EventType // joinLeaveReq → membership.joinleave
	SyncReq     *core.EventType // transport.NodeID → abcast.sendSync
	PeerReset   *core.EventType // transport.NodeID → relcast.peerReset + abcast.peerReset
	RetrTick    *core.EventType // nil → relcomm.retransmit
	FDTick      *core.EventType // nil → fd.tick
	FDBeat      *core.EventType // transport.Datagram → fd.beat
	Suspect     *core.EventType // suspicion → consensus.suspect

	up, deliverOut, adeliver [256]*core.EventType
}

func newEvents() *events {
	ev := &events{
		FromNet:     core.NewEventType("FromNet"),
		NetSend:     core.NewEventType("NetSend"),
		SendOut:     core.NewEventType("SendOut"),
		FromRComm:   core.NewEventType("FromRComm"),
		ConsIn:      core.NewEventType("ConsIn"),
		SyncIn:      core.NewEventType("SyncIn"),
		Bcast:       core.NewEventType("Bcast"),
		DeliverOut:  core.NewEventType("DeliverOut"),
		RDeliver:    core.NewEventType("RDeliver"),
		ABcastEv:    core.NewEventType("ABcast"),
		ProposeEv:   core.NewEventType("Propose"),
		Decide:      core.NewEventType("Decide"),
		ADeliver:    core.NewEventType("ADeliver"),
		DeliverView: core.NewEventType("DeliverView"),
		ViewChange:  core.NewEventType("ViewChange"),
		JoinLeave:   core.NewEventType("JoinLeave"),
		SyncReq:     core.NewEventType("SyncReq"),
		PeerReset:   core.NewEventType("PeerReset"),
		RetrTick:    core.NewEventType("RetransmitTick"),
		FDTick:      core.NewEventType("FDTick"),
		FDBeat:      core.NewEventType("FDBeat"),
		Suspect:     core.NewEventType("Suspect"),
	}
	ev.up[layerRelCast], ev.up[layerConsensus], ev.up[layerSync] = ev.FromRComm, ev.ConsIn, ev.SyncIn
	ev.deliverOut[castApp], ev.deliverOut[castViewChg] = ev.DeliverOut, ev.DeliverOut
	ev.deliverOut[castRApp] = ev.RDeliver
	ev.adeliver[castApp], ev.adeliver[castViewChg] = ev.ADeliver, ev.DeliverView
	return ev
}
