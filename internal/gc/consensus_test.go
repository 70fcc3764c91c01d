package gc

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// consHarness drives one Consensus microprotocol in isolation: SendOut and
// Decide are bound to capture handlers, and protocol messages are fed in
// as RelComm hands them up: the layer tag stripped.
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
	h.s.Bind(h.ev.ConsIn, h.c.hRecv)
	h.s.Bind(h.ev.Suspect, h.c.hSuspect)
	h.s.Bind(h.ev.ViewChange, h.c.hViewChange)
	h.spec = core.Access(h.c.mp, capture)
	return h
}

func (h *consHarness) propose(t *testing.T, inst uint64, tag string) {
	t.Helper()
	v := []castMsg{{ID: MsgID{Origin: 9, Seq: 1}, Kind: castApp, Data: []byte(tag)}}
	if err := h.s.External(h.spec, h.ev.ProposeEv, proposeReq{inst: inst, value: v}); err != nil {
		t.Fatal(err)
	}
}

func (h *consHarness) feed(t *testing.T, from simnet.NodeID, m consMsg) {
	t.Helper()
	if err := h.s.External(h.spec, h.ev.ConsIn, rcRecvd{sender: from, inner: encodeConsFrame(&m)[1:]}); err != nil {
		t.Fatal(err)
	}
}

func (h *consHarness) viewChange(t *testing.T, v *View) {
	t.Helper()
	if err := h.s.External(h.spec, h.ev.ViewChange, v); err != nil {
		t.Fatal(err)
	}
}

func (h *consHarness) suspect(t *testing.T, site simnet.NodeID) {
	t.Helper()
	if err := h.s.External(h.spec, h.ev.Suspect, suspicion{site: site}); err != nil {
		t.Fatal(err)
	}
}

// sentCons is one captured, decoded consensus send.
type sentCons struct {
	to simnet.NodeID
	m  consMsg
}

// sentOfType decodes captured sends of one message type.
func (h *consHarness) sentOfType(t *testing.T, typ uint8) []sentCons {
	t.Helper()
	var out []sentCons
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
			out = append(out, sentCons{s.to, m})
		}
	}
	return out
}

// peers lists the destinations of captured sends, failing the test if
// any is this harness's own site: the coordinator's ACCEPT and DECIDE go
// to the other members only.
func (h *consHarness) peers(t *testing.T, sent []sentCons) []simnet.NodeID {
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
// own ACCEPT in place and says so in the Voted bit, so one remote
// ACCEPTED completes a 3-site quorum; it decides in place and sends no
// DECIDE, since every acceptor of a voted ACCEPT decides on it.
func TestConsensusRound0CoordinatorPath(t *testing.T) {
	h := newConsHarness(t, 0, NewView(0, 1, 2)) // coord(inst 0, round 0) = 0
	h.propose(t, 0, "v")

	accepts := h.sentOfType(t, cAccept)
	if to := h.peers(t, accepts); fmt.Sprint(to) != "[1 2]" {
		t.Fatalf("ACCEPT sent to %v, want the peers [1 2]", to)
	}
	if m := accepts[0].m; m.Round != 0 || !m.Voted || !m.HasValue || string(m.Value[0].Data) != "v" {
		t.Fatalf("accept = %+v, want a voted round-0 ACCEPT of \"v\"", m)
	}
	if st := h.c.get(0); !st.accepts[0] || !st.hasAcc || string(st.accValue[0].Data) != "v" {
		t.Fatalf("coordinator did not accept its own value in place: %+v", st)
	}
	if len(h.decided) != 0 || len(h.sentOfType(t, cDecide)) != 0 {
		t.Fatal("decided inside propose")
	}

	// One remote ACCEPTED plus the coordinator's own accept is the
	// quorum (2 of 3) ⇒ Decide right here, and no DECIDE: no site
	// refused the ACCEPT.
	h.feed(t, 1, consMsg{Type: cAccepted, Inst: 0, Round: 0})
	if decides := h.sentOfType(t, cDecide); len(decides) != 0 {
		t.Fatalf("DECIDE sent as %+v, want none", decides)
	}
	if len(h.decided) != 1 || h.decided[0].inst != 0 || string(h.decided[0].value[0].Data) != "v" {
		t.Fatalf("decided = %+v", h.decided)
	}
	// A late ACCEPTED must not re-decide, nor a DECIDE frame (a peer's
	// replay) raise Decide a second time.
	h.feed(t, 2, consMsg{Type: cAccepted, Inst: 0, Round: 0})
	h.feed(t, 1, consMsg{Type: cDecide, Inst: 0, Round: 0, HasValue: true, Value: accepts[0].m.Value})
	if len(h.sentOfType(t, cDecide)) != 0 || len(h.decided) != 1 {
		t.Fatalf("re-decided: %d DECIDEs sent, %d decisions", len(h.sentOfType(t, cDecide)), len(h.decided))
	}
}

// TestConsensusSelfFrameAccept: the coordinator falls back to a
// self-addressed ACCEPT when its local accept alone would reach the
// quorum (a one-site view) or is refused, so neither propose nor suspect
// ever raises Decide. Such an ACCEPT carries no vote, so the coordinator
// sends DECIDE to every peer.
func TestConsensusSelfFrameAccept(t *testing.T) {
	t.Run("one-site view", func(t *testing.T) {
		h := newConsHarness(t, 0, NewView(0))
		h.propose(t, 0, "v")
		accepts := h.sentOfType(t, cAccept)
		if len(accepts) != 1 || accepts[0].to != 0 || accepts[0].m.Voted {
			t.Fatalf("ACCEPT sent as %+v, want one unvoted self frame", accepts)
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
		if len(accepts) != 3 || accepts[0].m.Voted {
			t.Fatalf("ACCEPT sent as %+v, want 3 unvoted (self frame included)", accepts)
		}
		if st := h.c.get(0); st.accepts[0] || st.hasAcc {
			t.Fatalf("refused accept counted: %+v", st)
		}
		// One remote ACCEPTED is no quorum without the coordinator.
		h.feed(t, 1, consMsg{Type: cAccepted, Inst: 0, Round: 0})
		if len(h.decided) != 0 || len(h.sentOfType(t, cDecide)) != 0 {
			t.Fatal("decided with the coordinator's refused accept counted")
		}
		// Two remote votes are the quorum; neither acceptor could decide
		// on an unvoted ACCEPT, so both are sent DECIDE.
		h.feed(t, 2, consMsg{Type: cAccepted, Inst: 0, Round: 0})
		if to := h.peers(t, h.sentOfType(t, cDecide)); len(h.decided) != 1 || fmt.Sprint(to) != "[1 2]" {
			t.Fatalf("decided = %+v, DECIDE sent to %v, want one decision and DECIDE to [1 2]", h.decided, to)
		}
	})
}

// TestConsensusProposerForwardsToCoordinator: a non-coordinator records
// its proposal and sends nothing until the coordinator solicits it; then
// it sends the PROPOSE for the instance that site coordinates, and
// forwards later proposals to it at once, to no one else.
func TestConsensusProposerForwardsToCoordinator(t *testing.T) {
	h := newConsHarness(t, 1, NewView(0, 1, 2)) // coord(inst, 0) = inst mod 3
	h.propose(t, 0, "v")
	if props := h.sentOfType(t, cPropose); len(props) != 0 {
		t.Fatalf("PROPOSE without a solicit: %+v", props)
	}
	h.feed(t, 0, consMsg{Type: cSolicit})
	if got := instsTo(t, h.sentOfType(t, cPropose), 0); fmt.Sprint(got) != "[0]" {
		t.Fatalf("PROPOSE after site 0's solicit for instances %v, want [0]", got)
	}
	h.decideAll(t, 5)
	h.propose(t, 5, "v") // coordinated by site 2, which did not solicit
	h.decideAll(t, 6)
	h.propose(t, 6, "v")
	if got := instsTo(t, h.sentOfType(t, cPropose), 0); fmt.Sprint(got) != "[0 6]" {
		t.Fatalf("PROPOSE for instances %v, want [0 6]: instance 6 to site 0 at once, 5 not at all", got)
	}
}

func TestConsensusAcceptorPath(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2))
	val := []castMsg{{ID: MsgID{Origin: 0, Seq: 1}, Kind: castApp, Data: []byte("x")}}
	h.feed(t, 0, consMsg{Type: cAccept, Inst: 0, Round: 0, HasValue: true, Value: val})
	acks := h.sentOfType(t, cAccepted)
	if len(acks) != 1 || acks[0].to != 0 || acks[0].m.Round != 0 {
		t.Fatalf("ACCEPTED = %+v", acks)
	}
	// A stale (lower-round) ACCEPT after promising a higher round is
	// refused, and the refusal answers its sender.
	h.feed(t, 1, consMsg{Type: cPrepare, Inst: 0, Round: 3})
	if n := len(h.sentOfType(t, cPromise)); n != 1 {
		t.Fatalf("PROMISE count = %d", n)
	}
	h.feed(t, 0, consMsg{Type: cAccept, Inst: 0, Round: 1, HasValue: true, Value: val})
	if n := len(h.sentOfType(t, cAccepted)); n != 1 {
		t.Fatalf("stale ACCEPT was accepted; ACCEPTED count = %d", n)
	}
	if refusals := h.sentOfType(t, cRefused); len(refusals) != 1 || refusals[0].to != 0 || refusals[0].m.Round != 1 {
		t.Fatalf("refusals = %+v, want one of round 1 to site 0", refusals)
	}
	if len(h.decided) != 0 {
		t.Fatalf("decided on an unvoted ACCEPT: %+v", h.decided)
	}
}

func TestConsensusPromiseCarriesAcceptedValue(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2))
	val := []castMsg{{ID: MsgID{Origin: 0, Seq: 1}, Kind: castApp, Data: []byte("locked-in")}}
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

	locked := []castMsg{{ID: MsgID{Origin: 0, Seq: 7}, Kind: castApp, Data: []byte("theirs")}}
	h.feed(t, 2, consMsg{Type: cPromise, Inst: 0, Round: 1, AccRound: 0, HasValue: true, Value: locked})
	h.feed(t, 1, consMsg{Type: cPromise, Inst: 0, Round: 1}) // own loopback, no accepted value

	h.acceptAndDecide(t, "theirs")
}

// acceptAndDecide checks instance 0's round-1 coordinator after its
// promise quorum: a voted ACCEPT of want goes to the two peers and is
// accepted in place, so one remote ACCEPTED is the quorum; Decide is
// raised here and no DECIDE is sent, since nobody refused.
func (h *consHarness) acceptAndDecide(t *testing.T, want string) {
	t.Helper()
	accepts := h.sentOfType(t, cAccept)
	if to := h.peers(t, accepts); len(to) != 2 {
		t.Fatalf("ACCEPT sent to %v, want the 2 peers", to)
	}
	if m := accepts[0].m; string(m.Value[0].Data) != want || m.Round != 1 || !m.Voted {
		t.Fatalf("ACCEPT = %+v, want a voted ACCEPT of %q in round 1", m, want)
	}
	if !h.c.get(0).accepts[h.c.self] {
		t.Fatal("coordinator did not count its own accept")
	}
	peer := accepts[0].to
	h.feed(t, peer, consMsg{Type: cAccepted, Inst: 0, Round: 1})
	if decides := h.sentOfType(t, cDecide); len(decides) != 0 {
		t.Fatalf("DECIDE sent as %+v, want none", decides)
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

// TestConsensusSuspicionReforwards: when the coordinator changes and this
// site is not the new one, its proposal is re-forwarded to the new
// coordinator, and every other member is solicited.
func TestConsensusSuspicionReforwards(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2)) // coord(0,1)=1, not us
	h.propose(t, 0, "v")                        // recorded, not sent
	if n := len(h.sentOfType(t, cPropose)); n != 0 {
		t.Fatalf("PROPOSE count = %d before the suspicion, want 0", n)
	}
	h.suspect(t, 0)
	props := h.sentOfType(t, cPropose)
	if len(props) != 1 || props[0].to != 1 || props[0].m.Round != 1 {
		t.Fatalf("re-forward = %+v, want one PROPOSE to new coordinator 1 in round 1", props)
	}
	if to := h.peers(t, h.sentOfType(t, cSolicit)); fmt.Sprint(to) != "[0 1]" {
		t.Fatalf("SOLICIT sent to %v, want [0 1]", to)
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

// TestConsensusInstancesIndependent: each instance's proposal goes to
// that instance's coordinator only, when it solicits.
func TestConsensusInstancesIndependent(t *testing.T) {
	h := newConsHarness(t, 0, NewView(0, 1, 2))
	h.propose(t, 0, "v0")
	if accepts := h.sentOfType(t, cAccept); len(accepts) != 2 || accepts[0].m.Inst != 0 {
		t.Fatalf("ACCEPT = %+v, want instance 0 to the two peers", accepts)
	}
	h.feed(t, 1, consMsg{Type: cAccepted, Inst: 0, Round: 0})
	for inst := uint64(1); inst < 3; inst++ {
		coord := simnet.NodeID(inst)
		h.propose(t, inst, fmt.Sprintf("v%d", inst))
		if props := h.sentOfType(t, cPropose); len(props) != int(inst)-1 {
			t.Fatalf("instance %d forwarded before site %d solicited: %+v", inst, coord, props)
		}
		h.feed(t, coord, consMsg{Type: cSolicit})
		props := h.sentOfType(t, cPropose)
		if last := props[len(props)-1]; len(props) != int(inst) || last.to != coord || last.m.Inst != inst {
			t.Fatalf("forwards = %+v, want instance %d to site %d", props, inst, coord)
		}
		val := []castMsg{{ID: MsgID{Origin: coord, Seq: 1}, Kind: castApp}}
		h.feed(t, coord, consMsg{Type: cDecide, Inst: inst, HasValue: true, Value: val})
	}
}

// decideAll feeds DECIDEs for instances [0, n) from site 0, each with the
// sender's watermark set past it.
func (h *consHarness) decideAll(t *testing.T, n uint64) {
	t.Helper()
	for inst := uint64(0); inst < n; inst++ {
		val := []castMsg{{ID: MsgID{Origin: 0, Seq: inst + 1}, Kind: castApp, Data: []byte(fmt.Sprint(inst))}}
		h.feed(t, 0, consMsg{Type: cDecide, Inst: inst, Done: inst + 1, HasValue: true, Value: val})
	}
}

// TestConsensusSolicitReplaysDecisions: a SOLICIT is answered with a
// DECIDE replay for every instance decided here from the solicitor's
// watermark up.
func TestConsensusSolicitReplaysDecisions(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2))
	h.decideAll(t, 4)
	if h.c.done != 4 {
		t.Fatalf("watermark = %d after deciding 0..3, want 4", h.c.done)
	}
	h.feed(t, 1, consMsg{Type: cSolicit, Done: 2})
	decides := h.sentOfType(t, cDecide)
	for _, d := range decides {
		if string(d.m.Value[0].Data) != fmt.Sprint(d.m.Inst) {
			t.Fatalf("replay of %d carries %q", d.m.Inst, d.m.Value[0].Data)
		}
	}
	if got := instsTo(t, decides, 1); fmt.Sprint(got) != "[2 3]" {
		t.Fatalf("replayed instances %v, want [2 3]", got)
	}
}

// instsTo returns the sorted instances of captured sends, failing the
// test if any went to a site other than to.
func instsTo(t *testing.T, sent []sentCons, to simnet.NodeID) []uint64 {
	t.Helper()
	var insts []uint64
	for _, s := range sent {
		if s.to != to {
			t.Fatalf("%+v sent to %d, want %d", s.m, s.to, to)
		}
		insts = append(insts, s.m.Inst)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	return insts
}

// TestConsensusSolicitedRelaysDecisions: a solicited site relays to the
// solicitor every decision it did not reach as coordinator — from another
// coordinator's DECIDE or from a voted ACCEPT it accepted — except to the
// coordinator itself, and none it reaches as coordinator.
func TestConsensusSolicitedRelaysDecisions(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2)) // coord(inst, 0) = inst mod 3
	h.feed(t, 0, consMsg{Type: cSolicit})

	h.decideAll(t, 1) // from site 0 itself: nobody to relay it to
	val := func(inst uint64) []castMsg {
		return []castMsg{{ID: MsgID{Origin: 1, Seq: inst}, Kind: castApp, Data: []byte("x")}}
	}
	h.feed(t, 1, consMsg{Type: cDecide, Inst: 1, Round: 0, HasValue: true, Value: val(1)})
	if got := instsTo(t, h.sentOfType(t, cDecide), 0); fmt.Sprint(got) != "[1]" {
		t.Fatalf("relayed instances %v, want [1]", got)
	}

	// Instance 2 is ours: acceptors decide on the voted ACCEPT, so
	// nobody is sent a DECIDE.
	h.propose(t, 2, "mine")
	h.feed(t, 1, consMsg{Type: cAccepted, Inst: 2, Round: 0})

	// Instance 3's coordinator is the solicitor: no relay back to it.
	// Instance 4's is site 1: its voted ACCEPT decides here and is
	// relayed to the solicitor.
	h.feed(t, 0, consMsg{Type: cAccept, Inst: 3, Round: 0, Voted: true, HasValue: true, Value: val(3)})
	h.feed(t, 1, consMsg{Type: cAccept, Inst: 4, Round: 0, Voted: true, HasValue: true, Value: val(4)})
	if got := instsTo(t, h.sentOfType(t, cDecide), 0); fmt.Sprint(got) != "[1 4]" {
		t.Fatalf("relayed instances %v, want [1 4]", got)
	}
	if len(h.decided) != 5 {
		t.Fatalf("decided = %+v, want instances 0..4", h.decided)
	}
}

// TestConsensusViewChangeClearsSolicited: a view change drops the
// solicitors; a member new to the view counts as solicited, since it
// cannot hold the casts sent before its join.
func TestConsensusViewChangeClearsSolicited(t *testing.T) {
	h := newConsHarness(t, 1, NewView(0, 1, 2))
	h.feed(t, 0, consMsg{Type: cSolicit})
	h.decideAll(t, 4)
	h.viewChange(t, NewView(0, 1, 2, 3))
	if len(h.c.solicited) != 1 || !h.c.solicited[3] {
		t.Fatalf("solicited = %v after the view change, want only the newcomer 3", h.c.solicited)
	}
	h.propose(t, 4, "v") // coord(4, 0) = 0 in {0,1,2,3}
	if props := h.sentOfType(t, cPropose); len(props) != 0 {
		t.Fatalf("PROPOSE to a solicitor of the old view: %+v", props)
	}
	h.decideAll(t, 7)
	h.propose(t, 7, "v") // coord(7, 0) = 3
	if props := h.sentOfType(t, cPropose); len(props) != 1 || props[0].to != 3 {
		t.Fatalf("PROPOSE = %+v, want one to the newcomer 3", props)
	}
}

// TestConsensusSolicitedLatePropose: a PROPOSE a solicitor receives for
// an instance it has already decided is answered with the DECIDE replay.
func TestConsensusSolicitedLatePropose(t *testing.T) {
	h := newConsHarness(t, 0, NewView(0, 1, 2))
	h.propose(t, 0, "v")
	h.feed(t, 1, consMsg{Type: cAccepted, Inst: 0, Round: 0})
	h.suspect(t, 1)
	late := []castMsg{{ID: MsgID{Origin: 2, Seq: 1}, Kind: castApp, Data: []byte("late")}}
	h.feed(t, 2, consMsg{Type: cPropose, Inst: 0, Round: 0, HasValue: true, Value: late})
	decides := h.sentOfType(t, cDecide)
	if len(decides) != 1 || decides[0].to != 2 || string(decides[0].m.Value[0].Data) != "v" {
		t.Fatalf("DECIDEs = %+v, want only the replay of \"v\" to site 2", decides)
	}
}

// TestConsensusSolicitAfterPruning: once every member reported a watermark
// past an instance, its state is gone and its messages are ignored, but a
// SOLICIT — which names no instance — is still handled.
func TestConsensusSolicitAfterPruning(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2))
	h.decideAll(t, 6)
	if h.c.low != 0 || len(h.c.insts) != 6 {
		t.Fatalf("pruned to %d with %d instances before site 1 reported", h.c.low, len(h.c.insts))
	}
	h.feed(t, 1, consMsg{Type: cAccepted, Inst: 5, Done: 6})
	if h.c.low != 6 || len(h.c.insts) != 0 {
		t.Fatalf("low = %d, %d instances left, want 6 and 0", h.c.low, len(h.c.insts))
	}
	h.feed(t, 1, consMsg{Type: cPrepare, Inst: 3, Round: 4})
	if len(h.sentOfType(t, cPromise)) != 0 || len(h.c.insts) != 0 {
		t.Fatal("a pruned instance's PREPARE was handled")
	}
	h.feed(t, 0, consMsg{Type: cSolicit, Done: 6})
	if !h.c.solicited[0] {
		t.Fatal("SOLICIT dropped after pruning")
	}
	h.propose(t, 6, "v") // coord(6, 0) = 0
	if props := h.sentOfType(t, cPropose); len(props) != 1 || props[0].to != 0 {
		t.Fatalf("PROPOSE = %+v, want one to the solicitor 0", props)
	}
}

// TestConsensusJoinerForwardsToEveryMember: a first proposal that skips
// undecided instances is a joiner's, at its sync point. The joiner then
// forwards its proposals to every coordinator, unasked, until the next
// view change: the members dropped the casts it sent before it was in
// their view.
func TestConsensusJoinerForwardsToEveryMember(t *testing.T) {
	h := newConsHarness(t, 2, NewView(0, 1, 2))
	h.propose(t, 4, "mine") // sync point 4; coord(4, 0) = 1
	props := h.sentOfType(t, cPropose)
	if len(props) != 1 || props[0].to != 1 || props[0].m.Done != 4 {
		t.Fatalf("PROPOSE = %+v, want instance 4 to site 1 with watermark 4", props)
	}
	h.viewChange(t, NewView(0, 1, 2, 3))
	if len(h.c.solicited) != 1 || !h.c.solicited[3] {
		t.Fatalf("solicited = %v after the view change, want only the newcomer 3", h.c.solicited)
	}
}

// TestConsensusVotedAcceptDecides: in a view of at most 3 sites the
// coordinator's in-place vote plus the acceptor's own is a quorum, so an
// acceptor that accepts a voted ACCEPT sends ACCEPTED and decides at once.
func TestConsensusVotedAcceptDecides(t *testing.T) {
	for _, view := range []*View{NewView(0, 1, 2), NewView(0, 1)} {
		t.Run(fmt.Sprintf("%d sites", view.Size()), func(t *testing.T) {
			coord := newConsHarness(t, 0, view)
			coord.propose(t, 0, "v")
			accepts := coord.sentOfType(t, cAccept)
			if len(accepts) != view.Size()-1 || !accepts[0].m.Voted {
				t.Fatalf("ACCEPT sent as %+v, want a voted one to each peer", accepts)
			}

			h := newConsHarness(t, 1, view)
			h.feed(t, 0, accepts[0].m)
			if acks := h.sentOfType(t, cAccepted); len(acks) != 1 || acks[0].to != 0 {
				t.Fatalf("ACCEPTED = %+v, want one to the coordinator", acks)
			}
			if len(h.decided) != 1 || string(h.decided[0].value[0].Data) != "v" {
				t.Fatalf("decided = %+v, want \"v\" on the voted ACCEPT", h.decided)
			}
			if decides := h.sentOfType(t, cDecide); len(decides) != 0 {
				t.Fatalf("DECIDE sent as %+v with no solicitor", decides)
			}
		})
	}
}

// TestConsensusUnvotedAcceptDoesNotDecide: an acceptor decides on no
// ACCEPT without the Voted bit, and a coordinator in a view of 4 sites,
// where its vote and one acceptor's are no quorum, sets no bit and still
// sends DECIDE to every peer.
func TestConsensusUnvotedAcceptDoesNotDecide(t *testing.T) {
	h := newConsHarness(t, 1, NewView(0, 1, 2))
	val := []castMsg{{ID: MsgID{Origin: 0, Seq: 1}, Kind: castApp, Data: []byte("x")}}
	h.feed(t, 0, consMsg{Type: cAccept, Inst: 0, Round: 0, HasValue: true, Value: val})
	if len(h.sentOfType(t, cAccepted)) != 1 || len(h.decided) != 0 {
		t.Fatalf("unvoted ACCEPT: %d ACCEPTED, decided = %+v, want 1 and none", len(h.sentOfType(t, cAccepted)), h.decided)
	}

	coord := newConsHarness(t, 0, NewView(0, 1, 2, 3))
	coord.propose(t, 0, "v")
	accepts := coord.sentOfType(t, cAccept)
	if to := coord.peers(t, accepts); fmt.Sprint(to) != "[1 2 3]" || accepts[0].m.Voted {
		t.Fatalf("ACCEPT sent as %+v, want an unvoted one to [1 2 3]", accepts)
	}
	coord.feed(t, 1, consMsg{Type: cAccepted, Inst: 0, Round: 0})
	if len(coord.decided) != 0 {
		t.Fatal("decided on 2 of 4 votes")
	}
	coord.feed(t, 2, consMsg{Type: cAccepted, Inst: 0, Round: 0})
	if to := coord.peers(t, coord.sentOfType(t, cDecide)); len(coord.decided) != 1 || fmt.Sprint(to) != "[1 2 3]" {
		t.Fatalf("decided = %+v, DECIDE sent to %v, want one decision and DECIDE to [1 2 3]", coord.decided, to)
	}
}

// pass feeds to every message of one type that from sent to it.
func pass(t *testing.T, from, to *consHarness, typ uint8) {
	t.Helper()
	for _, s := range from.sentOfType(t, typ) {
		if s.to == to.c.self {
			to.feed(t, from.c.self, s.m)
		}
	}
}

// TestConsensusRefusedAcceptGetsDecide: an acceptor that promised a higher
// round refuses a voted ACCEPT and says so; the coordinator, which may
// decide without it, sends it exactly one DECIDE, whether the refusal
// arrives before the decision or after it.
func TestConsensusRefusedAcceptGetsDecide(t *testing.T) {
	for _, refuseFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("refusal before decision %v", refuseFirst), func(t *testing.T) {
			view := NewView(0, 1, 2)
			coord, refuser := newConsHarness(t, 0, view), newConsHarness(t, 2, view)
			refuser.feed(t, 1, consMsg{Type: cPrepare, Inst: 0, Round: 1})
			coord.propose(t, 0, "v")
			pass(t, coord, refuser, cAccept)
			if len(refuser.sentOfType(t, cAccepted)) != 0 || len(refuser.decided) != 0 {
				t.Fatal("the refuser accepted or decided")
			}
			accepted := consMsg{Type: cAccepted, Inst: 0, Round: 0}
			if !refuseFirst {
				coord.feed(t, 1, accepted)
			}
			pass(t, refuser, coord, cRefused)
			if refuseFirst {
				coord.feed(t, 1, accepted)
			}
			if len(coord.decided) != 1 {
				t.Fatalf("coordinator decided %+v", coord.decided)
			}
			decides := coord.sentOfType(t, cDecide)
			if len(decides) != 1 || decides[0].to != 2 || string(decides[0].m.Value[0].Data) != "v" {
				t.Fatalf("DECIDEs = %+v, want one of \"v\" to the refuser 2", decides)
			}
			pass(t, coord, refuser, cDecide)
			if len(refuser.decided) != 1 {
				t.Fatal("the refuser did not decide")
			}
		})
	}
}

// TestConsensusViewChangeDropsSuspicions: a suspicion dies with the
// suspect's membership. After site 2 leaves and rejoins, an instance it
// coordinates starts in round 0 again: the proposal goes to site 2 (a
// newcomer, so solicited) instead of starting a PREPARE round past it.
func TestConsensusViewChangeDropsSuspicions(t *testing.T) {
	h := newConsHarness(t, 0, NewView(0, 1, 2))
	h.suspect(t, 2)
	h.viewChange(t, NewView(0, 1))
	h.viewChange(t, NewView(0, 1, 2))
	if len(h.c.suspects) != 0 {
		t.Fatalf("suspects = %v after site 2 left and rejoined, want none", h.c.suspects)
	}
	h.decideAll(t, 2)
	h.propose(t, 2, "v") // coord(2, 0) = 2
	if props := h.sentOfType(t, cPropose); len(props) != 1 || props[0].to != 2 || props[0].m.Round != 0 {
		t.Fatalf("PROPOSE = %+v, want one to site 2 in round 0", props)
	}
	if preps := h.sentOfType(t, cPrepare); len(preps) != 0 {
		t.Fatalf("PREPARE sent: %+v", preps)
	}
}
