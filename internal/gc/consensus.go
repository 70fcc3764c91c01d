package gc

import (
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// proposeReq asks consensus to decide a value for an instance.
type proposeReq struct {
	inst  uint64
	value []castMsg
}

// decision announces a decided instance (the Decide event message).
type decision struct {
	inst  uint64
	value []castMsg
}

// promiseVal is what an acceptor reports in a PROMISE: its last accepted
// round and value, if any.
type promiseVal struct {
	accRound uint32
	hasAcc   bool
	value    []castMsg
}

// consInst is the per-instance consensus state machine.
type consInst struct {
	round    uint32 // current round this site participates in
	promised uint32 // highest round promised / accepted for
	accRound uint32 // round of the last accepted value
	accValue []castMsg
	hasAcc   bool
	proposal []castMsg // locally known proposal (own or forwarded)
	hasProp  bool
	decided  bool
	// decidedVal keeps the decided value so a late proposer — typically a
	// joiner whose sync point lies past a decision it never received —
	// can be answered with a replayed DECIDE instead of stalling forever.
	decidedVal []castMsg

	// Coordinator-side bookkeeping.
	prepared    bool
	prepRound   uint32
	promises    map[transport.NodeID]promiseVal
	acceptSent  bool
	acceptRound uint32
	acceptVal   []castMsg
	accepts     map[transport.NodeID]bool
	// voted: the ACCEPT carried the Voted bit, so each acceptor decides
	// on it alone; refused lists the sites that refused it, the only
	// ones that then need a DECIDE.
	voted   bool
	refused []transport.NodeID
}

// Consensus is the distributed consensus microprotocol the paper's atomic
// broadcast builds on (§3). It runs one single-decree, majority-quorum,
// rotating-coordinator agreement per instance:
//
//   - Round 0 belongs to its coordinator, which may send ACCEPT directly.
//   - Higher rounds require a PREPARE/PROMISE phase; the coordinator
//     adopts the value of the highest-round promise, or its own proposal,
//     or an empty batch (which merely burns the instance).
//   - A quorum of ACCEPTED decides. In a view of at most 3 sites the
//     coordinator's own vote and one acceptor's are a quorum, so its
//     ACCEPT says Voted: each acceptor that accepts it decides at once,
//     and DECIDE goes only to the sites that refused it (cRefused). In
//     larger views the coordinator sends DECIDE to every member.
//   - Failure-detector suspicions advance the round past suspected
//     coordinators; a site that becomes coordinator runs PREPARE, and
//     proposers re-forward their proposal to the new coordinator.
//
// Proposals travel lazily. A coordinator proposes from its own pool, which
// in a stable view already holds every cast its origin sent it, so a
// non-coordinator records its proposal and sends nothing. A PROPOSE leaves
// only when a coordinator may lack the casts:
//
//   - after a suspicion advanced the round (the re-forward above);
//   - to a site that solicited: a site that suspects anyone sends every
//     member a SOLICIT, and each answers with its proposals for the
//     instances the solicitor coordinates and with the decisions it holds
//     from the solicitor's watermark up. Until the next view change it
//     keeps forwarding its proposals to that site and relaying to it
//     every decision it did not reach as coordinator, which also covers a
//     cut link from the coordinator to the solicitor;
//   - between a joiner and the members, both ways, until the next view
//     change: the members treat a site new in their view as solicited,
//     since it cannot have received the casts sent before its join; the
//     joiner treats every member as solicited from its first proposal,
//     which skips the instances below its sync point, since the members
//     dropped the casts it sent before it was in their view.
//
// Every message carries the sender's watermark Done: each instance below
// it is decided there, or covered by the snapshot a joiner installed. The
// minimum watermark over the view, this site's own included and a member
// that has not reported yet counting as 0, is the mark below which no
// member can need an instance again; its state is deleted and messages
// for it are ignored.
//
// Messages between sites travel over RelComm (reliable). The coordinator
// accepts its own ACCEPT in place, counting itself towards the quorum, and
// decides in place on the ACCEPTED that completes it; it sends ACCEPT and
// DECIDE to the other members only. PREPARE, PROMISE and the ACCEPT that
// cannot be accepted in place (see sendAccept) still reach the coordinator
// as a self-addressed frame.
type Consensus struct {
	mp   *core.Microprotocol
	self transport.NodeID
	ev   *events

	view     *View
	suspects map[transport.NodeID]bool
	insts    map[uint64]*consInst

	// solicited holds the sites that asked for proposals and decisions
	// (cSolicit), plus the view's newcomers or, at a joiner, every
	// member; a view change resets it.
	solicited map[transport.NodeID]bool
	// done is this site's watermark: every instance below it is decided
	// here, or lies below the sync point of a joiner's first proposal.
	done uint64
	// peerDone is the highest watermark each peer reported; low is the
	// pruning mark: every instance below it is forgotten.
	peerDone map[transport.NodeID]uint64
	low      uint64

	hPropose, hRecv, hSuspect, hViewChange *core.Handler
}

func newConsensus(self transport.NodeID, initial *View, ev *events) *Consensus {
	c := &Consensus{
		mp:        core.NewMicroprotocol("consensus"),
		self:      self,
		ev:        ev,
		view:      initial,
		suspects:  make(map[transport.NodeID]bool),
		insts:     make(map[uint64]*consInst),
		solicited: make(map[transport.NodeID]bool),
		peerDone:  make(map[transport.NodeID]uint64),
	}
	c.hPropose = c.mp.AddHandler("propose", c.propose).Emits(ev.SendOut)
	c.hRecv = c.mp.AddHandler("recv", c.recv).Emits(ev.SendOut, ev.Decide)
	c.hSuspect = c.mp.AddHandler("suspect", c.suspect).Emits(ev.SendOut)
	c.hViewChange = c.mp.AddHandler("viewChange", c.viewChange).Emits()
	return c
}

func (c *Consensus) get(inst uint64) *consInst {
	st := c.insts[inst]
	if st == nil {
		st = &consInst{}
		c.insts[inst] = st
	}
	return st
}

// advanceDone moves the watermark past the decided instances above it and
// prunes what the view no longer needs.
func (c *Consensus) advanceDone() {
	for st := c.insts[c.done]; st != nil && st.decided; st = c.insts[c.done] {
		c.done++
	}
	c.prune()
}

// prune forgets every instance below the minimum watermark over the view.
// Only an instance that every member has decided (or skipped by its sync
// point) goes, so no PREPARE, PROMISE or replay can need it again.
func (c *Consensus) prune() {
	mark := c.done
	for _, site := range c.view.Members() {
		if site != c.self {
			mark = min(mark, c.peerDone[site])
		}
	}
	for ; c.low < mark; c.low++ {
		delete(c.insts, c.low)
	}
}

func (c *Consensus) sendTo(ctx *core.Context, to transport.NodeID, m *consMsg) error {
	m.Done = c.done
	return ctx.Trigger(c.ev.SendOut, rcSendReq{to: to, inner: encodeConsFrame(m)})
}

// sendAll sends m to every view member, this site included only if
// toSelf is set.
func (c *Consensus) sendAll(ctx *core.Context, m *consMsg, toSelf bool) error {
	m.Done = c.done
	frame := encodeConsFrame(m)
	for _, site := range c.view.Members() {
		if site == c.self && !toSelf {
			continue
		}
		if err := ctx.Trigger(c.ev.SendOut, rcSendReq{to: site, inner: frame}); err != nil {
			return err
		}
	}
	return nil
}

// sendPropose forwards this site's proposal for inst to coord.
func (c *Consensus) sendPropose(ctx *core.Context, coord transport.NodeID, inst uint64, st *consInst) error {
	return c.sendTo(ctx, coord, &consMsg{Type: cPropose, Inst: inst, Round: st.round, HasValue: true, Value: st.proposal})
}

// sendDecide sends one site the decision of inst.
func (c *Consensus) sendDecide(ctx *core.Context, to transport.NodeID, inst uint64, round uint32, value []castMsg) error {
	return c.sendTo(ctx, to, &consMsg{Type: cDecide, Inst: inst, Round: round, HasValue: true, Value: value})
}

// advanceRounds moves past rounds whose coordinator is suspected (at most
// one full rotation, in case everyone is suspected).
func (c *Consensus) advanceRounds(inst uint64, st *consInst) {
	for i := 0; i < c.view.Size() && c.suspects[c.view.coordinator(inst, st.round)]; i++ {
		st.round++
	}
}

// propose handles a local proposal (from ABcast). ABcast proposes the
// instance after the last it delivered, so every instance below it is
// decided here or covered by a joiner's snapshot: the watermark rises to
// it. A non-coordinator forwards the proposal only to a solicited
// coordinator.
func (c *Consensus) propose(ctx *core.Context, msg core.Message) error {
	req := msg.(proposeReq)
	if req.inst > c.done {
		c.advanceDone()
	}
	if req.inst > c.done {
		// Only a joiner's first proposal skips undecided instances: they
		// lie below its sync point. The joiner is new to the view and may
		// hold casts the members never received, so it forwards to every
		// member until the next view change, as they do to it.
		c.done = req.inst
		for _, site := range c.view.Members() {
			if site != c.self {
				c.solicited[site] = true
			}
		}
		c.advanceDone()
	}
	if req.inst < c.low {
		return nil
	}
	st := c.get(req.inst)
	if st.decided {
		return nil
	}
	if !st.hasProp {
		st.hasProp = true
		st.proposal = req.value
	}
	c.advanceRounds(req.inst, st)
	coord := c.view.coordinator(req.inst, st.round)
	if coord == c.self {
		return c.tryCoordinate(ctx, req.inst, st)
	}
	if c.solicited[coord] {
		return c.sendPropose(ctx, coord, req.inst, st)
	}
	return nil
}

// tryCoordinate drives the coordinator role for the current round.
func (c *Consensus) tryCoordinate(ctx *core.Context, inst uint64, st *consInst) error {
	if st.decided || c.view.coordinator(inst, st.round) != c.self {
		return nil
	}
	if st.round == 0 {
		// Round 0 is pre-prepared: ACCEPT directly.
		if !st.acceptSent && st.hasProp {
			return c.sendAccept(ctx, inst, st, st.proposal)
		}
		return nil
	}
	if !st.prepared || st.prepRound != st.round {
		st.prepared = true
		st.prepRound = st.round
		st.promises = make(map[transport.NodeID]promiseVal)
		return c.sendAll(ctx, &consMsg{Type: cPrepare, Inst: inst, Round: st.round}, true)
	}
	return nil
}

func (c *Consensus) sendAccept(ctx *core.Context, inst uint64, st *consInst, value []castMsg) error {
	st.acceptSent = true
	st.acceptRound = st.round
	st.acceptVal = value
	st.accepts = make(map[transport.NodeID]bool)
	st.refused = nil
	m := &consMsg{Type: cAccept, Inst: inst, Round: st.round, HasValue: true, Value: value}
	// Accept in place unless that alone would reach the quorum (it would
	// decide inside propose or suspect, whose Emits exclude Decide) or is
	// refused: then the self frame takes the received-ACCEPT path.
	selfFrame := c.view.quorum() <= 1 || !c.accept(st, m)
	if !selfFrame {
		st.accepts[c.self] = true
		// In a view of at most 3 sites this vote plus any acceptor's is
		// the quorum, so an acceptor that accepts knows the value chosen.
		m.Voted = c.view.quorum() <= 2
	}
	st.voted = m.Voted
	return c.sendAll(ctx, m, selfFrame)
}

// accept applies an ACCEPT at this site, unless it has promised a higher
// round; it reports whether it accepted.
func (c *Consensus) accept(st *consInst, m *consMsg) bool {
	if m.Round < st.promised {
		return false
	}
	st.promised = m.Round
	st.accRound = m.Round
	st.accValue = m.Value
	st.hasAcc = true
	if m.Round > st.round {
		st.round = m.Round
	}
	return true
}

// learn decides a value this site did not reach as coordinator: from a
// DECIDE, or from a voted ACCEPT it accepted. It first relays the decision
// to the solicitors other than from, who may not hear it from the
// coordinator.
func (c *Consensus) learn(ctx *core.Context, st *consInst, from transport.NodeID, m *consMsg) error {
	if st.decided {
		return nil
	}
	for site := range c.solicited {
		if site != from {
			if err := c.sendDecide(ctx, site, m.Inst, m.Round, m.Value); err != nil {
				return err
			}
		}
	}
	return c.decide(ctx, st, m)
}

// decide delivers a decision once: the Decide event carries the value
// consensus keeps (accValue, acceptVal, decidedVal share it), so its
// handlers must not mutate the slice.
func (c *Consensus) decide(ctx *core.Context, st *consInst, m *consMsg) error {
	if st.decided {
		return nil
	}
	st.decided = true
	st.decidedVal = m.Value
	if err := ctx.TriggerAll(c.ev.Decide, decision{inst: m.Inst, value: m.Value}); err != nil {
		return err
	}
	c.advanceDone()
	return nil
}

// recv dispatches consensus protocol messages arriving over RelComm.
func (c *Consensus) recv(ctx *core.Context, msg core.Message) error {
	in := msg.(rcRecvd)
	r := wire.NewReader(in.inner)
	m := decodeConsMsg(r)
	if err := r.Err(); err != nil {
		return err
	}
	if m.Done > c.peerDone[in.sender] {
		c.peerDone[in.sender] = m.Done
		c.prune()
	}
	if m.Type == cSolicit {
		return c.solicit(ctx, in.sender, m.Done)
	}
	if m.Inst < c.low {
		return nil // every member has decided it
	}
	st := c.get(m.Inst)
	switch m.Type {
	case cPropose:
		if st.decided {
			// Replay the decision: the proposer missed it (a joiner's
			// first instance, or a DECIDE lost to its dead incarnation).
			return c.sendDecide(ctx, in.sender, m.Inst, m.Round, st.decidedVal)
		}
		if !st.hasProp {
			st.hasProp = true
			st.proposal = m.Value
		}
		c.advanceRounds(m.Inst, st)
		return c.tryCoordinate(ctx, m.Inst, st)

	case cPrepare:
		if m.Round < st.promised {
			return nil
		}
		st.promised = m.Round
		if m.Round > st.round {
			st.round = m.Round
		}
		return c.sendTo(ctx, in.sender, &consMsg{
			Type: cPromise, Inst: m.Inst, Round: m.Round,
			AccRound: st.accRound, HasValue: st.hasAcc, Value: st.accValue,
		})

	case cPromise:
		if st.decided || !st.prepared || m.Round != st.round ||
			c.view.coordinator(m.Inst, st.round) != c.self {
			return nil
		}
		pv := promiseVal{accRound: m.AccRound}
		if m.HasValue {
			pv.hasAcc = true
			pv.value = m.Value
		}
		st.promises[in.sender] = pv
		if len(st.promises) < c.view.quorum() || (st.acceptSent && st.acceptRound == st.round) {
			return nil
		}
		// Adopt the highest-round accepted value; else the proposal;
		// else an empty batch, which just burns the instance.
		var value []castMsg
		var best uint32
		var found bool
		for _, p := range st.promises {
			if p.hasAcc && (!found || p.accRound > best) {
				found = true
				best = p.accRound
				value = p.value
			}
		}
		if !found && st.hasProp {
			value = st.proposal
		}
		return c.sendAccept(ctx, m.Inst, st, value)

	case cAccept:
		if !c.accept(st, &m) {
			// Answered, so a coordinator that decides without this site
			// sends it the decision.
			return c.sendTo(ctx, in.sender, &consMsg{Type: cRefused, Inst: m.Inst, Round: m.Round})
		}
		if err := c.sendTo(ctx, in.sender, &consMsg{Type: cAccepted, Inst: m.Inst, Round: m.Round}); err != nil {
			return err
		}
		if !m.Voted {
			return nil
		}
		// The coordinator's vote and this site's are its quorum.
		return c.learn(ctx, st, in.sender, &m)

	case cRefused:
		if st.decided {
			// Replay the decision: the refuser cannot reach it by itself.
			return c.sendDecide(ctx, in.sender, m.Inst, st.round, st.decidedVal)
		}
		if st.acceptSent && st.acceptRound == m.Round {
			st.refused = append(st.refused, in.sender)
		}
		return nil

	case cAccepted:
		if st.decided || !st.acceptSent || st.acceptRound != m.Round ||
			c.view.coordinator(m.Inst, m.Round) != c.self {
			return nil
		}
		st.accepts[in.sender] = true
		if len(st.accepts) < c.view.quorum() {
			return nil
		}
		d := &consMsg{Type: cDecide, Inst: m.Inst, Round: m.Round, HasValue: true, Value: st.acceptVal}
		var err error
		if st.voted {
			// Every acceptor of a voted ACCEPT decides on it; a refuser cannot.
			for _, site := range st.refused {
				if err = c.sendTo(ctx, site, d); err != nil {
					break
				}
			}
		} else {
			err = c.sendAll(ctx, d, false)
		}
		if err != nil {
			return err
		}
		return c.decide(ctx, st, d)

	case cDecide:
		return c.learn(ctx, st, in.sender, &m)
	}
	return nil
}

// solicit answers a cSolicit from site, whose watermark is done: it sends
// the proposals site now coordinates and every decision from done up, and
// keeps forwarding and relaying to site until the next view change.
func (c *Consensus) solicit(ctx *core.Context, site transport.NodeID, done uint64) error {
	c.solicited[site] = true
	for inst, st := range c.insts {
		var err error
		switch {
		case st.decided && inst >= done:
			err = c.sendDecide(ctx, site, inst, st.round, st.decidedVal)
		case !st.decided && st.hasProp && c.view.coordinator(inst, st.round) == site:
			err = c.sendPropose(ctx, site, inst, st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// suspect reacts to a failure-detector suspicion: undecided instances
// whose coordinator is the suspect advance their round; if this site is
// the new coordinator it runs PREPARE, otherwise it re-forwards its
// proposal so the new coordinator has a value. Then it solicits the other
// members: a site it cannot hear from may hold the casts it lacks, or
// coordinate decisions that never reach it.
func (c *Consensus) suspect(ctx *core.Context, msg core.Message) error {
	s := msg.(suspicion)
	c.suspects[s.site] = true
	for inst, st := range c.insts {
		if st.decided {
			continue
		}
		old := st.round
		c.advanceRounds(inst, st)
		if st.round == old {
			continue
		}
		coord := c.view.coordinator(inst, st.round)
		if coord == c.self {
			if err := c.tryCoordinate(ctx, inst, st); err != nil {
				return err
			}
		} else if st.hasProp {
			if err := c.sendPropose(ctx, coord, inst, st); err != nil {
				return err
			}
		}
	}
	return c.sendAll(ctx, &consMsg{Type: cSolicit}, false)
}

// viewChange adopts the new view for quorum and coordinator computation.
// It drops the solicitors and treats the view's newcomers as solicited,
// and forgets the watermarks and suspicions of sites that left: a site
// that rejoins is a new incarnation, and FD announces it afresh if it
// fails again.
func (c *Consensus) viewChange(_ *core.Context, msg core.Message) error {
	old := c.view
	c.view = msg.(*View)
	clear(c.solicited)
	for _, site := range c.view.Members() {
		if site != c.self && !old.Contains(site) {
			c.solicited[site] = true
		}
	}
	for site := range c.peerDone {
		if !c.view.Contains(site) {
			delete(c.peerDone, site)
		}
	}
	for site := range c.suspects {
		if !c.view.Contains(site) {
			delete(c.suspects, site)
		}
	}
	c.prune()
	return nil
}
