package gc

import (
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// suspicion announces that a site is suspected to have crashed.
type suspicion struct {
	site transport.NodeID
}

// FD is a heartbeat failure detector in the eventually-perfect style: each
// tick it beats every view member and suspects any member not heard from
// within the suspicion timeout. Suspicions are announced once per
// transition via the Suspect event; hearing from a suspect again clears
// the suspicion locally (consensus keeps its own record, so no Trust
// event is needed for the protocols built here).
type FD struct {
	mp           *core.Microprotocol
	self         transport.NodeID
	ev           *events
	suspectAfter time.Duration

	view      *View
	lastHeard map[transport.NodeID]time.Time
	suspected map[transport.NodeID]bool

	hTick, hBeat, hViewChange *core.Handler
}

func newFD(self transport.NodeID, initial *View, suspectAfter time.Duration, ev *events) *FD {
	f := &FD{
		mp:           core.NewMicroprotocol("fd"),
		self:         self,
		ev:           ev,
		suspectAfter: suspectAfter,
		view:         initial,
		lastHeard:    make(map[transport.NodeID]time.Time),
		suspected:    make(map[transport.NodeID]bool),
	}
	now := time.Now()
	for _, m := range initial.Members() {
		f.lastHeard[m] = now
	}
	f.hTick = f.mp.AddHandler("tick", f.tick).Emits(ev.NetSend, ev.Suspect)
	f.hBeat = f.mp.AddHandler("beat", f.beat).Emits()
	f.hViewChange = f.mp.AddHandler("viewChange", f.viewChange).Emits()
	return f
}

// tick beats every peer and raises suspicions for silent ones.
func (f *FD) tick(ctx *core.Context, _ core.Message) error {
	now := time.Now()
	for _, m := range f.view.Members() {
		if m == f.self {
			continue
		}
		if err := ctx.Trigger(f.ev.NetSend, outFrame{to: m, frame: frame{Kind: dgBeat}}); err != nil {
			return err
		}
		if !f.suspected[m] && now.Sub(f.lastHeard[m]) > f.suspectAfter {
			f.suspected[m] = true
			if err := ctx.TriggerAll(f.ev.Suspect, suspicion{site: m}); err != nil {
				return err
			}
		}
	}
	return nil
}

// beat records a heartbeat from a peer.
func (f *FD) beat(_ *core.Context, msg core.Message) error {
	from := msg.(transport.Datagram).From
	f.lastHeard[from] = time.Now()
	delete(f.suspected, from)
	return nil
}

// viewChange adopts the new view, granting fresh members a full timeout
// and no suspicion: a member new to the view is a new incarnation, whose
// failure must be announced again.
func (f *FD) viewChange(_ *core.Context, msg core.Message) error {
	v := msg.(*View)
	now := time.Now()
	for _, m := range v.Members() {
		if !f.view.Contains(m) {
			f.lastHeard[m] = now
			delete(f.suspected, m)
		}
	}
	f.view = v
	return nil
}
