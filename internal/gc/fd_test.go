package gc

import (
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/simnet"
)

// fdHarness drives one FD microprotocol, capturing heartbeats (NetSend)
// and suspicions.
type fdHarness struct {
	s          *core.Stack
	f          *FD
	ev         *events
	spec       *core.Spec
	beats      []outFrame
	suspicions []simnet.NodeID
}

func newFDHarness(t *testing.T, self simnet.NodeID, view *View, timeout time.Duration) *fdHarness {
	t.Helper()
	h := &fdHarness{ev: newEvents()}
	h.s = core.NewStack(cc.NewVCABasic())
	h.f = newFD(self, view, timeout, h.ev)
	capture := core.NewMicroprotocol("capture")
	hSend := capture.AddHandler("send", func(_ *core.Context, msg core.Message) error {
		h.beats = append(h.beats, msg.(outFrame))
		return nil
	})
	hSusp := capture.AddHandler("suspect", func(_ *core.Context, msg core.Message) error {
		h.suspicions = append(h.suspicions, msg.(suspicion).site)
		return nil
	})
	h.s.Register(h.f.mp, capture)
	h.s.Bind(h.ev.NetSend, hSend)
	h.s.Bind(h.ev.Suspect, hSusp)
	h.s.Bind(h.ev.FDTick, h.f.hTick)
	h.s.Bind(h.ev.FDBeat, h.f.hBeat)
	h.s.Bind(h.ev.ViewChange, h.f.hViewChange)
	h.spec = core.Access(h.f.mp, capture)
	return h
}

func (h *fdHarness) tick(t *testing.T) {
	t.Helper()
	if err := h.s.External(h.spec, h.ev.FDTick, nil); err != nil {
		t.Fatal(err)
	}
}

func (h *fdHarness) beat(t *testing.T, from simnet.NodeID) {
	t.Helper()
	d := simnet.Datagram{From: from, To: 0, Payload: []byte{dgBeat}}
	if err := h.s.External(h.spec, h.ev.FDBeat, d); err != nil {
		t.Fatal(err)
	}
}

func TestFDBeatsEveryPeerNotSelf(t *testing.T) {
	h := newFDHarness(t, 0, NewView(0, 1, 2), time.Hour)
	h.tick(t)
	if len(h.beats) != 2 {
		t.Fatalf("beats = %d, want 2 (peers only)", len(h.beats))
	}
	tos := map[simnet.NodeID]bool{}
	for _, b := range h.beats {
		tos[b.to] = true
		if b.Kind != dgBeat {
			t.Fatal("not a heartbeat datagram")
		}
	}
	if tos[0] || !tos[1] || !tos[2] {
		t.Fatalf("beat targets = %v", tos)
	}
}

func TestFDSuspectsSilentPeerOnce(t *testing.T) {
	h := newFDHarness(t, 0, NewView(0, 1), 10*time.Millisecond)
	h.tick(t)
	if len(h.suspicions) != 0 {
		t.Fatal("suspected within the grace period")
	}
	time.Sleep(20 * time.Millisecond)
	h.tick(t)
	if len(h.suspicions) != 1 || h.suspicions[0] != 1 {
		t.Fatalf("suspicions = %v", h.suspicions)
	}
	// Edge-triggered: silent ticks do not re-announce.
	h.tick(t)
	if len(h.suspicions) != 1 {
		t.Fatalf("re-announced suspicion: %v", h.suspicions)
	}
}

func TestFDBeatClearsSuspicion(t *testing.T) {
	h := newFDHarness(t, 0, NewView(0, 1), 10*time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	h.tick(t)
	if len(h.suspicions) != 1 {
		t.Fatalf("suspicions = %v", h.suspicions)
	}
	h.beat(t, 1) // peer is alive after all
	h.tick(t)
	if len(h.suspicions) != 1 {
		t.Fatal("suspicion not cleared by heartbeat")
	}
	// Goes silent again: a fresh suspicion fires.
	time.Sleep(20 * time.Millisecond)
	h.tick(t)
	if len(h.suspicions) != 2 {
		t.Fatalf("suspicions = %v", h.suspicions)
	}
}

func TestFDNewMemberGetsGracePeriod(t *testing.T) {
	h := newFDHarness(t, 0, NewView(0, 1), 15*time.Millisecond)
	time.Sleep(25 * time.Millisecond)
	// Site 2 joins right before the tick: it must not be insta-suspected
	// even though it has never been heard from.
	if err := h.s.External(h.spec, h.ev.ViewChange, NewView(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	h.tick(t)
	for _, s := range h.suspicions {
		if s == 2 {
			t.Fatal("fresh member suspected without a grace period")
		}
	}
}

// TestFDRejoinedMemberSuspectedAgain: a site that leaves and rejoins is a
// new incarnation, so its suspicion does not outlive the old one's
// membership, and its next failure is announced again.
func TestFDRejoinedMemberSuspectedAgain(t *testing.T) {
	h := newFDHarness(t, 0, NewView(0, 1, 2), 10*time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	h.tick(t)
	if len(h.suspicions) != 2 {
		t.Fatalf("suspicions = %v, want sites 1 and 2", h.suspicions)
	}
	h.beat(t, 1)
	for _, v := range []*View{NewView(0, 1), NewView(0, 1, 2)} {
		if err := h.s.External(h.spec, h.ev.ViewChange, v); err != nil {
			t.Fatal(err)
		}
	}
	if h.f.suspected[2] {
		t.Fatal("the rejoined site is still suspected")
	}
	time.Sleep(20 * time.Millisecond)
	h.tick(t)
	if n := len(h.suspicions); n != 4 || h.suspicions[3] != 2 {
		t.Fatalf("suspicions = %v, want the rejoined site 2 announced again", h.suspicions)
	}
}

// membHarness drives one Membership microprotocol, capturing the
// ViewChange fan-out, ABcast requests, and sync requests.
type membHarness struct {
	s        *core.Stack
	m        *Membership
	ev       *events
	spec     *core.Spec
	views    []*View
	abcasts  []abcastReq
	syncReqs []simnet.NodeID
}

func newMembHarness(t *testing.T, self simnet.NodeID, view *View) *membHarness {
	t.Helper()
	h := &membHarness{ev: newEvents()}
	h.s = core.NewStack(cc.NewVCABasic())
	h.m = newMembership(self, view, h.ev)
	capture := core.NewMicroprotocol("capture")
	hView := capture.AddHandler("view", func(_ *core.Context, msg core.Message) error {
		h.views = append(h.views, msg.(*View))
		return nil
	})
	hAB := capture.AddHandler("abcast", func(_ *core.Context, msg core.Message) error {
		h.abcasts = append(h.abcasts, msg.(abcastReq))
		return nil
	})
	hSync := capture.AddHandler("sync", func(_ *core.Context, msg core.Message) error {
		h.syncReqs = append(h.syncReqs, msg.(simnet.NodeID))
		return nil
	})
	h.s.Register(h.m.mp, capture)
	h.s.Bind(h.ev.ViewChange, hView)
	h.s.Bind(h.ev.ABcastEv, hAB)
	h.s.Bind(h.ev.SyncReq, hSync)
	h.s.Bind(h.ev.JoinLeave, h.m.hJoinLeave)
	h.s.Bind(h.ev.DeliverView, h.m.hDeliverView)
	h.spec = core.Access(h.m.mp, capture)
	return h
}

func TestMembershipJoinLeaveABcasts(t *testing.T) {
	h := newMembHarness(t, 0, NewView(0, 1))
	if err := h.s.External(h.spec, h.ev.JoinLeave, joinLeaveReq{op: '+', site: 2}); err != nil {
		t.Fatal(err)
	}
	if len(h.abcasts) != 1 || h.abcasts[0].kind != castViewChg || h.abcasts[0].op != '+' || h.abcasts[0].site != 2 {
		t.Fatalf("abcasts = %+v", h.abcasts)
	}
}

func TestMembershipDeliverViewFansOut(t *testing.T) {
	h := newMembHarness(t, 0, NewView(0, 1))
	cm := castMsg{ID: MsgID{Origin: 1, Seq: 1}, Kind: castViewChg, Op: '+', Site: 2}
	if err := h.s.External(h.spec, h.ev.DeliverView, cm); err != nil {
		t.Fatal(err)
	}
	if len(h.views) != 1 || !h.views[0].Contains(2) || h.views[0].Size() != 3 {
		t.Fatalf("views = %v", h.views)
	}
	if h.m.View().Size() != 3 {
		t.Fatal("membership's own view not updated")
	}
	// Established members sync the joiner.
	if len(h.syncReqs) != 1 || h.syncReqs[0] != 2 {
		t.Fatalf("syncReqs = %v", h.syncReqs)
	}
}

func TestMembershipJoinerDoesNotSyncItself(t *testing.T) {
	h := newMembHarness(t, 2, NewView(0, 1, 2)) // we are the joiner
	cm := castMsg{ID: MsgID{Origin: 1, Seq: 1}, Kind: castViewChg, Op: '+', Site: 2}
	if err := h.s.External(h.spec, h.ev.DeliverView, cm); err != nil {
		t.Fatal(err)
	}
	if len(h.syncReqs) != 0 {
		t.Fatalf("joiner synced itself: %v", h.syncReqs)
	}
}

func TestMembershipLeaveNoSync(t *testing.T) {
	h := newMembHarness(t, 0, NewView(0, 1, 2))
	cm := castMsg{ID: MsgID{Origin: 1, Seq: 1}, Kind: castViewChg, Op: '-', Site: 2}
	if err := h.s.External(h.spec, h.ev.DeliverView, cm); err != nil {
		t.Fatal(err)
	}
	if len(h.views) != 1 || h.views[0].Contains(2) {
		t.Fatalf("views = %v", h.views)
	}
	if len(h.syncReqs) != 0 {
		t.Fatalf("leave must not sync: %v", h.syncReqs)
	}
}
