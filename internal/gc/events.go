package gc

import "repro/internal/core"

// events holds one site's event types — first-class values passed to the
// microprotocol constructors, exactly as the paper's Protocol parameters
// (e.g. "Protocol RelCast (SendOut, DeliverOut, Bcast, FromRComm,
// ViewChange : Event)").
type events struct {
	FromNet    *core.EventType // transport.Datagram → relcomm.recv
	NetSend    *core.EventType // outFrame → netout.send
	SendOut    *core.EventType // rcSendReq → relcomm.send
	FromRComm  *core.EventType // rcRecvd → relcast.recv + consensus.recv
	Bcast      *core.EventType // *CastMsg → relcast.bcast
	DeliverOut *core.EventType // CastMsg → abcast.recv + app.rdeliver
	ABcastEv   *core.EventType // abcastReq → abcast.abcast
	FifoEv     *core.EventType // []byte → fifo.bcast
	CausalEv   *core.EventType // []byte → causal.bcast
	ProposeEv  *core.EventType // proposeReq → consensus.propose
	Decide     *core.EventType // decision → abcast.onDecide
	ADeliver   *core.EventType // CastMsg → membership.deliverView + app.deliver
	ViewChange *core.EventType // *View → relcast, relcomm, fd, consensus, app
	JoinLeave  *core.EventType // joinLeaveReq → membership.joinleave
	SyncReq    *core.EventType // transport.NodeID → abcast.sendSync
	PeerReset  *core.EventType // transport.NodeID → relcast.peerReset + abcast.peerReset
	RetrTick   *core.EventType // nil → relcomm.retransmit
	FDTick     *core.EventType // nil → fd.tick
	FDBeat     *core.EventType // transport.Datagram → fd.beat
	Suspect    *core.EventType // suspicion → consensus.suspect
}

func newEvents() *events {
	return &events{
		FromNet:    core.NewEventType("FromNet"),
		NetSend:    core.NewEventType("NetSend"),
		SendOut:    core.NewEventType("SendOut"),
		FromRComm:  core.NewEventType("FromRComm"),
		Bcast:      core.NewEventType("Bcast"),
		DeliverOut: core.NewEventType("DeliverOut"),
		ABcastEv:   core.NewEventType("ABcast"),
		FifoEv:     core.NewEventType("FBcast"),
		CausalEv:   core.NewEventType("CBcast"),
		ProposeEv:  core.NewEventType("Propose"),
		Decide:     core.NewEventType("Decide"),
		ADeliver:   core.NewEventType("ADeliver"),
		ViewChange: core.NewEventType("ViewChange"),
		JoinLeave:  core.NewEventType("JoinLeave"),
		SyncReq:    core.NewEventType("SyncReq"),
		PeerReset:  core.NewEventType("PeerReset"),
		RetrTick:   core.NewEventType("RetransmitTick"),
		FDTick:     core.NewEventType("FDTick"),
		FDBeat:     core.NewEventType("FDBeat"),
		Suspect:    core.NewEventType("Suspect"),
	}
}
