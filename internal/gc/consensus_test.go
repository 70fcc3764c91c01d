package gc

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// consHarness drives one Consensus microprotocol in isolation: SendOut and
// Decide are bound to capture handlers, and protocol messages are fed in
// as decoded FromRComm deliveries.
type consHarness struct {
	s       *core.Stack
	c       *Consensus
	ev      *events
	spec    *core.Spec
	sent    []rcSendReq
	decided []decision
}

func newConsHarness(t *testing.T, self simnet.NodeID, view *View) *consHarness {
	t.Helper()
	h := &consHarness{ev: newEvents()}
	h.s = core.NewStack(cc.NewVCABasic())
	h.c = newConsensus(self, view, h.ev)
	capture := core.NewMicroprotocol("capture")
	hSend := capture.AddHandler("send", func(_ *core.Context, msg core.Message) error {
		h.sent = append(h.sent, msg.(rcSendReq))
		return nil
	})
	hDecide := capture.AddHandler("decide", func(_ *core.Context, msg core.Message) error {
		h.decided = append(h.decided, msg.(decision))
		return nil
	})
	h.s.Register(h.c.mp, capture)
	h.s.Bind(h.ev.SendOut, hSend)
	h.s.Bind(h.ev.Decide, hDecide)
	h.s.Bind(h.ev.ProposeEv, h.c.hPropose)
	h.s.Bind(h.ev.FromRComm, h.c.hRecv)
	h.s.Bind(h.ev.Suspect, h.c.hSuspect)
	h.spec = core.Access(h.c.mp, capture)
	return h
}

func (h *consHarness) propose(t *testing.T, inst uint64, tag string) {
	t.Helper()
	v := []CastMsg{{ID: MsgID{Origin: 9, Seq: 1}, Kind: castApp, Data: []byte(tag)}}
	if err := h.s.External(h.spec, h.ev.ProposeEv, proposeReq{inst: inst, value: v}); err != nil {
		t.Fatal(err)
	}
}

func (h *consHarness) feed(t *testing.T, from simnet.NodeID, m consMsg) {
	t.Helper()
	if err := h.s.External(h.spec, h.ev.FromRComm, rcRecvd{sender: from, inner: encodeConsFrame(&m)}); err != nil {
		t.Fatal(err)
	}
}

func (h *consHarness) suspect(t *testing.T, site simnet.NodeID) {
	t.Helper()
	if err := h.s.External(h.spec, h.ev.Suspect, suspicion{site: site}); err != nil {
		t.Fatal(err)
	}
}

// sentOfType decodes captured sends of one message type.
func (h *consHarness) sentOfType(t *testing.T, typ uint8) []struct {
	to simnet.NodeID
	m  consMsg
} {
	t.Helper()
	var out []struct {
		to simnet.NodeID
		m  consMsg
	}
	for _, s := range h.sent {
		r := wire.NewReader(s.inner)
		if r.U8() != layerConsensus {
			continue
		}
		m := decodeConsMsg(r)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		if m.Type == typ {
			out = append(out, struct {
				to simnet.NodeID
				m  consMsg
			}{s.to, m})
		}
	}
	return out
}

// peers lists the destinations of captured sends, failing the test if
// any is this harness's own site: the coordinator's ACCEPT and DECIDE go
// to the other members only.
func (h *consHarness) peers(t *testing.T, sent []struct {
	to simnet.NodeID
	m  consMsg
}) []simnet.NodeID {
	t.Helper()
	var to []simnet.NodeID
	for _, s := range sent {
		if s.to == h.c.self {
			t.Fatalf("%+v sent to the coordinator itself", s.m)
		}
		to = append(to, s.to)
	}
	return to
}

// TestConsensusRound0CoordinatorPath: the round-0 coordinator accepts its
// own ACCEPT in place, so one remote ACCEPTED completes a 3-site quorum,
// and it decides in place while DECIDE goes to the two peers.
func TestConsensusRound0CoordinatorPath(t *testing.T) {
	h := newConsHarness(t, 0, NewView(0, 1, 2)) // coord(inst 0, round 0) = 0
	h.propose(t, 0, "v")

	accepts := h.sentOfType(t, cAccept)
	if to := h.peers(t, accepts); fmt.Sprint(to) != "[1 2]" {
		t.Fatalf("ACCEPT sent to %v, want the peers [1 2]", to)
	}
	if accepts[0].m.Round != 0 || !accepts[0].m.HasValue || string(accepts[0].m.Value[0].Data) != "v" {
		t.Fatalf("accept = %+v", accepts[0].m)
	}
	if st := h.c.get(0); !st.accepts[0] || !st.hasAcc || string(st.accValue[0].Data) != "v" {
		t.Fatalf("coordinator did not accept its own value in place: %+v", st)
	}
	if len(h.decided) != 0 || len(h.sentOfType(t, cDecide)) != 0 {
		t.Fatal("decided inside propose")
	}

	// One remote ACCEPTED plus the coordinator's own accept is the
	// quorum (2 of 3) ⇒ DECIDE to the peers, and Decide right here.
	h.feed(t, 1, consMsg{Type: cAccepted, Inst: 0, Round: 0})
	decides := h.sentOfType(t, cDecide)
	if to := h.peers(t, decides); fmt.Sprint(to) != "[1 2]" {
		t.Fatalf("DECIDE sent to %v, want the peers [1 2]", to)
	}
	if len(h.decided) != 1 || h.decided[0].inst != 0 || string(h.decided[0].value[0].Data) != "v" {
		t.Fatalf("decided = %+v", h.decided)
	}
	// A late ACCEPTED must not re-decide, nor a DECIDE frame (a peer's
	// replay) raise Decide a second time.
	h.feed(t, 2, consMsg{Type: cAccepted, Inst: 0, Round: 0})
	h.feed(t, 1, consMsg{Type: cDecide, Inst: 0, Round: 0, HasValue: true, Value: decides[0].m.Value})
	if len(h.sentOfType(t, cDecide)) != 2 || len(h.decided) != 1 {
		t.Fatalf("re-decided: %d DECIDEs sent, %d decisions", len(h.sentOfType(t, cDecide)), len(h.decided))
	}
}

// TestConsensusSelfFrameAccept: the coordinator falls back to a
// self-addressed ACCEPT when its local accept alone would reach the
// quorum (a one-site view) or is refused, so neither propose nor suspect
// ever raises Decide.
func TestConsensusSelfFrameAccept(t *testing.T) {
	t.Run("one-site view", func(t *testing.T) {
		h := newConsHarness(t, 0, NewView(0))
		h.propose(t, 0, "v")
		accepts := h.sentOfType(t, cAccept)
		if len(accepts) != 1 || accepts[0].to != 0 {
			t.Fatalf("ACCEPT sent as %+v, want one self frame", accepts)
		}
		if len(h.decided) != 0 || len(h.c.get(0).accepts) != 0 {
			t.Fatal("accepted or decided inside propose")
		}
		// The self frame takes the received-ACCEPT path; its ACCEPTED
		// completes the quorum and decides.
		h.feed(t, 0, accepts[0].m)
		h.feed(t, 0, consMsg{Type: cAccepted, Inst: 0, Round: 0})
		if len(h.decided) != 1 || len(h.sentOfType(t, cDecide)) != 0 {
			t.Fatalf("decided = %+v, DECIDEs = %d", h.decided, len(h.sentOfType(t, cDecide)))
		}
	})
	t.Run("refused", func(t *testing.T) {
		h := newConsHarness(t, 0, NewView(0, 1, 2))
		// A promise above the coordinator's round: the message paths keep
		// round ≥ promised, so this is set directly.
		h.c.get(0).promised = 5
		h.propose(t, 0, "v")
		accepts := h.sentOfType(t, cAccept)
		if len(accepts) != 3 {
			t.Fatalf("ACCEPT sent to %d sites, want 3 (self frame included)", len(accepts))
		}
		if st := h.c.get(0); st.accepts[0] || st.hasAcc {
			t.Fatalf("refused accept counted: %+v", st)
		}
		// One remote ACCEPTED is no quorum without the coordinator.
		h.feed(t, 1, consMsg{Type: cAccepted, Inst: 0, Round: 0})
		if len(h.decided) != 0 || len(h.sentOfType(t, cDecide)) != 0 {
			t.Fatal("decided with the coordinator's refused accept counted")
		}
	})
}

func TestConsensusProposerForwardsToCoordinator(t *testing.T) {
	h := newConsHarness(t, 1, NewView(0, 1, 2)) // not coordinator of inst 0
	h.propose(t, 0, "v")
	props := h.sentOfType(t, cPropose)
	if len(props) != 1 || props[0].to != 0 {
		t.Fatalf("PROPOSE routing = %+v", props)
	}
}

func TestConsensusAcceptorPath(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2))
	val := []CastMsg{{ID: MsgID{Origin: 0, Seq: 1}, Kind: castApp, Data: []byte("x")}}
	h.feed(t, 0, consMsg{Type: cAccept, Inst: 0, Round: 0, HasValue: true, Value: val})
	acks := h.sentOfType(t, cAccepted)
	if len(acks) != 1 || acks[0].to != 0 || acks[0].m.Round != 0 {
		t.Fatalf("ACCEPTED = %+v", acks)
	}
	// A stale (lower-round) ACCEPT after promising a higher round is ignored.
	h.feed(t, 1, consMsg{Type: cPrepare, Inst: 0, Round: 3})
	if n := len(h.sentOfType(t, cPromise)); n != 1 {
		t.Fatalf("PROMISE count = %d", n)
	}
	h.feed(t, 0, consMsg{Type: cAccept, Inst: 0, Round: 1, HasValue: true, Value: val})
	if n := len(h.sentOfType(t, cAccepted)); n != 1 {
		t.Fatalf("stale ACCEPT was accepted; ACCEPTED count = %d", n)
	}
}

func TestConsensusPromiseCarriesAcceptedValue(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2))
	val := []CastMsg{{ID: MsgID{Origin: 0, Seq: 1}, Kind: castApp, Data: []byte("locked-in")}}
	h.feed(t, 0, consMsg{Type: cAccept, Inst: 0, Round: 0, HasValue: true, Value: val})
	h.feed(t, 1, consMsg{Type: cPrepare, Inst: 0, Round: 2})
	proms := h.sentOfType(t, cPromise)
	if len(proms) != 1 || proms[0].to != 1 {
		t.Fatalf("PROMISE = %+v", proms)
	}
	if !proms[0].m.HasValue || proms[0].m.AccRound != 0 || string(proms[0].m.Value[0].Data) != "locked-in" {
		t.Fatalf("promise must carry the accepted value: %+v", proms[0].m)
	}
}

// TestConsensusNewCoordinatorAdoptsPromisedValue is the Paxos-safety
// heart: after suspicion promotes this site to coordinator, the quorum's
// highest-round accepted value wins over the site's own proposal.
func TestConsensusNewCoordinatorAdoptsPromisedValue(t *testing.T) {
	h := newConsHarness(t, 1, NewView(0, 1, 2)) // coord(inst 0, round 1) = 1
	h.propose(t, 0, "mine")                     // forwards to 0
	h.suspect(t, 0)                             // round 0 coordinator suspected

	preps := h.sentOfType(t, cPrepare)
	if len(preps) != 3 || preps[0].m.Round != 1 {
		t.Fatalf("PREPARE = %+v", preps)
	}

	locked := []CastMsg{{ID: MsgID{Origin: 0, Seq: 7}, Kind: castApp, Data: []byte("theirs")}}
	h.feed(t, 2, consMsg{Type: cPromise, Inst: 0, Round: 1, AccRound: 0, HasValue: true, Value: locked})
	h.feed(t, 1, consMsg{Type: cPromise, Inst: 0, Round: 1}) // own loopback, no accepted value

	h.acceptAndDecide(t, "theirs")
}

// acceptAndDecide checks instance 0's round-1 coordinator after its
// promise quorum: ACCEPT of want goes to the two peers and is accepted in
// place, so one remote ACCEPTED is the quorum; DECIDE goes to the peers
// and Decide is raised here.
func (h *consHarness) acceptAndDecide(t *testing.T, want string) {
	t.Helper()
	accepts := h.sentOfType(t, cAccept)
	if to := h.peers(t, accepts); len(to) != 2 {
		t.Fatalf("ACCEPT sent to %v, want the 2 peers", to)
	}
	if got := string(accepts[0].m.Value[0].Data); got != want || accepts[0].m.Round != 1 {
		t.Fatalf("ACCEPT of %q in round %d, want %q in round 1", got, accepts[0].m.Round, want)
	}
	if !h.c.get(0).accepts[h.c.self] {
		t.Fatal("coordinator did not count its own accept")
	}
	peer := accepts[0].to
	h.feed(t, peer, consMsg{Type: cAccepted, Inst: 0, Round: 1})
	if to := h.peers(t, h.sentOfType(t, cDecide)); len(to) != 2 {
		t.Fatalf("DECIDE sent to %v, want the 2 peers", to)
	}
	if len(h.decided) != 1 || string(h.decided[0].value[0].Data) != want {
		t.Fatalf("decided = %+v, want %q", h.decided, want)
	}
}

// TestConsensusNewCoordinatorUsesOwnProposalWhenNoneAccepted: with no
// accepted value in the promise quorum, the coordinator's own proposal is
// chosen.
func TestConsensusNewCoordinatorUsesOwnProposal(t *testing.T) {
	h := newConsHarness(t, 1, NewView(0, 1, 2))
	h.propose(t, 0, "mine")
	h.suspect(t, 0)
	h.feed(t, 2, consMsg{Type: cPromise, Inst: 0, Round: 1})
	h.feed(t, 1, consMsg{Type: cPromise, Inst: 0, Round: 1})
	h.acceptAndDecide(t, "mine")
}

// TestConsensusSuspicionReforwardsProposal: when the coordinator changes
// and this site is not the new one, its proposal is re-forwarded.
func TestConsensusSuspicionReforwards(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2)) // coord(0,1)=1, not us
	h.propose(t, 0, "v")                        // → site 0
	h.suspect(t, 0)
	props := h.sentOfType(t, cPropose)
	if len(props) != 2 {
		t.Fatalf("PROPOSE count = %d, want re-forward", len(props))
	}
	if props[1].to != 1 {
		t.Fatalf("re-forward went to %d, want new coordinator 1", props[1].to)
	}
}

// TestConsensusSkipsSuspectedCoordinators: a fresh proposal jumps over
// already-suspected rounds.
func TestConsensusSkipsSuspected(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2))
	h.suspect(t, 0)
	h.suspect(t, 1)
	h.propose(t, 0, "v") // rounds 0 (coord 0) and 1 (coord 1) are suspect → round 2, coord 2 = us
	if len(h.sentOfType(t, cPrepare)) != 3 {
		t.Fatal("expected to coordinate via PREPARE after skipping suspects")
	}
	if len(h.sentOfType(t, cPropose)) != 0 {
		t.Fatal("must not forward to suspected coordinators")
	}
}

func TestConsensusStalePrepareIgnored(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2))
	h.feed(t, 1, consMsg{Type: cPrepare, Inst: 0, Round: 5})
	h.feed(t, 0, consMsg{Type: cPrepare, Inst: 0, Round: 2}) // stale
	proms := h.sentOfType(t, cPromise)
	if len(proms) != 1 || proms[0].m.Round != 5 {
		t.Fatalf("promises = %+v", proms)
	}
}

func TestConsensusInstancesIndependent(t *testing.T) {
	h := newConsHarness(t, 0, NewView(0, 1, 2))
	for inst := uint64(0); inst < 3; inst++ {
		coord := NewView(0, 1, 2).Coordinator(inst, 0)
		h.propose(t, inst, fmt.Sprintf("v%d", inst))
		if coord == 0 {
			if len(h.sentOfType(t, cAccept)) == 0 {
				t.Fatalf("inst %d: expected to coordinate", inst)
			}
		}
	}
	// Instance 1's coordinator is site 1: we forwarded.
	props := h.sentOfType(t, cPropose)
	if len(props) != 2 || props[0].to != 1 || props[1].to != 2 {
		t.Fatalf("forwards = %+v", props)
	}
}
