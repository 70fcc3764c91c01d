package gc

import (
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// proposeReq asks consensus to decide a value for an instance.
type proposeReq struct {
	inst  uint64
	value []CastMsg
}

// decision announces a decided instance (the Decide event message).
type decision struct {
	inst  uint64
	value []CastMsg
}

// promiseVal is what an acceptor reports in a PROMISE: its last accepted
// round and value, if any.
type promiseVal struct {
	accRound uint32
	hasAcc   bool
	value    []CastMsg
}

// consInst is the per-instance consensus state machine.
type consInst struct {
	round    uint32 // current round this site participates in
	promised uint32 // highest round promised / accepted for
	accRound uint32 // round of the last accepted value
	accValue []CastMsg
	hasAcc   bool
	proposal []CastMsg // locally known proposal (own or forwarded)
	hasProp  bool
	decided  bool
	// decidedVal keeps the decided value so a late proposer — typically a
	// joiner whose sync point lies past a decision it never received —
	// can be answered with a replayed DECIDE instead of stalling forever.
	decidedVal []CastMsg

	// Coordinator-side bookkeeping.
	prepared    bool
	prepRound   uint32
	promises    map[transport.NodeID]promiseVal
	acceptSent  bool
	acceptRound uint32
	acceptVal   []CastMsg
	accepts     map[transport.NodeID]bool
	decideSent  bool
}

// Consensus is the distributed consensus microprotocol the paper's atomic
// broadcast builds on (§3). It runs one single-decree, majority-quorum,
// rotating-coordinator agreement per instance:
//
//   - Round 0 belongs to its coordinator, which may send ACCEPT directly.
//   - Higher rounds require a PREPARE/PROMISE phase; the coordinator
//     adopts the value of the highest-round promise, or its own proposal,
//     or an empty batch (which merely burns the instance).
//   - A quorum of ACCEPTED yields a DECIDE broadcast.
//   - Failure-detector suspicions advance the round past suspected
//     coordinators; a site that becomes coordinator runs PREPARE, and
//     proposers re-forward their proposal to the new coordinator.
//
// All messages travel over RelComm (reliable), including self-addressed
// ones — the coordinator's own promise/accept arrives as a self-delivered
// frame, which keeps every path uniform.
type Consensus struct {
	mp   *core.Microprotocol
	self transport.NodeID
	ev   *events

	view     *View
	suspects map[transport.NodeID]bool
	insts    map[uint64]*consInst

	hPropose, hRecv, hSuspect, hViewChange *core.Handler
}

func newConsensus(self transport.NodeID, initial *View, ev *events) *Consensus {
	c := &Consensus{
		mp:       core.NewMicroprotocol("consensus"),
		self:     self,
		ev:       ev,
		view:     initial,
		suspects: make(map[transport.NodeID]bool),
		insts:    make(map[uint64]*consInst),
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

func (c *Consensus) sendTo(ctx *core.Context, to transport.NodeID, m *consMsg) error {
	return ctx.Trigger(c.ev.SendOut, rcSendReq{to: to, inner: encodeConsFrame(m)})
}

func (c *Consensus) sendAll(ctx *core.Context, m *consMsg) error {
	frame := encodeConsFrame(m)
	for _, site := range c.view.Members() {
		if err := ctx.Trigger(c.ev.SendOut, rcSendReq{to: site, inner: frame}); err != nil {
			return err
		}
	}
	return nil
}

// advanceRounds moves past rounds whose coordinator is suspected (at most
// one full rotation, in case everyone is suspected).
func (c *Consensus) advanceRounds(inst uint64, st *consInst) {
	for i := 0; i < c.view.Size() && c.suspects[c.view.Coordinator(inst, st.round)]; i++ {
		st.round++
	}
}

// propose handles a local proposal (from ABcast).
func (c *Consensus) propose(ctx *core.Context, msg core.Message) error {
	req := msg.(proposeReq)
	st := c.get(req.inst)
	if st.decided {
		return nil
	}
	if !st.hasProp {
		st.hasProp = true
		st.proposal = req.value
	}
	c.advanceRounds(req.inst, st)
	coord := c.view.Coordinator(req.inst, st.round)
	if coord == c.self {
		return c.tryCoordinate(ctx, req.inst, st)
	}
	return c.sendTo(ctx, coord, &consMsg{Type: cPropose, Inst: req.inst, Round: st.round, HasValue: true, Value: st.proposal})
}

// tryCoordinate drives the coordinator role for the current round.
func (c *Consensus) tryCoordinate(ctx *core.Context, inst uint64, st *consInst) error {
	if st.decided || c.view.Coordinator(inst, st.round) != c.self {
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
		return c.sendAll(ctx, &consMsg{Type: cPrepare, Inst: inst, Round: st.round})
	}
	return nil
}

func (c *Consensus) sendAccept(ctx *core.Context, inst uint64, st *consInst, value []CastMsg) error {
	st.acceptSent = true
	st.acceptRound = st.round
	st.acceptVal = value
	st.accepts = make(map[transport.NodeID]bool)
	return c.sendAll(ctx, &consMsg{Type: cAccept, Inst: inst, Round: st.round, HasValue: true, Value: value})
}

// recv dispatches consensus protocol messages arriving via FromRComm.
func (c *Consensus) recv(ctx *core.Context, msg core.Message) error {
	in := msg.(rcRecvd)
	r := wire.NewReader(in.inner)
	if r.U8() != layerConsensus {
		return nil
	}
	m := decodeConsMsg(r)
	if err := r.Err(); err != nil {
		return err
	}
	st := c.get(m.Inst)
	switch m.Type {
	case cPropose:
		if st.decided {
			// Replay the decision: the proposer missed it (a joiner's
			// first instance, or a DECIDE lost to its dead incarnation).
			return c.sendTo(ctx, in.sender, &consMsg{Type: cDecide, Inst: m.Inst, Round: m.Round, HasValue: true, Value: st.decidedVal})
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
			c.view.Coordinator(m.Inst, st.round) != c.self {
			return nil
		}
		pv := promiseVal{accRound: m.AccRound}
		if m.HasValue {
			pv.hasAcc = true
			pv.value = m.Value
		}
		st.promises[in.sender] = pv
		if len(st.promises) < c.view.Quorum() || (st.acceptSent && st.acceptRound == st.round) {
			return nil
		}
		// Adopt the highest-round accepted value; else the proposal;
		// else an empty batch, which just burns the instance.
		var value []CastMsg
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
		if m.Round < st.promised {
			return nil
		}
		st.promised = m.Round
		st.accRound = m.Round
		st.accValue = m.Value
		st.hasAcc = true
		if m.Round > st.round {
			st.round = m.Round
		}
		return c.sendTo(ctx, in.sender, &consMsg{Type: cAccepted, Inst: m.Inst, Round: m.Round})

	case cAccepted:
		if st.decided || st.decideSent || !st.acceptSent || st.acceptRound != m.Round ||
			c.view.Coordinator(m.Inst, m.Round) != c.self {
			return nil
		}
		st.accepts[in.sender] = true
		if len(st.accepts) < c.view.Quorum() {
			return nil
		}
		st.decideSent = true
		return c.sendAll(ctx, &consMsg{Type: cDecide, Inst: m.Inst, Round: m.Round, HasValue: true, Value: st.acceptVal})

	case cDecide:
		if st.decided {
			return nil
		}
		st.decided = true
		st.decidedVal = m.Value
		return ctx.TriggerAll(c.ev.Decide, decision{inst: m.Inst, value: m.Value})
	}
	return nil
}

// suspect reacts to a failure-detector suspicion: undecided instances
// whose coordinator is the suspect advance their round; if this site is
// the new coordinator it runs PREPARE, otherwise it re-forwards its
// proposal so the new coordinator has a value.
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
		coord := c.view.Coordinator(inst, st.round)
		if coord == c.self {
			if err := c.tryCoordinate(ctx, inst, st); err != nil {
				return err
			}
		} else if st.hasProp {
			if err := c.sendTo(ctx, coord, &consMsg{Type: cPropose, Inst: inst, Round: st.round, HasValue: true, Value: st.proposal}); err != nil {
				return err
			}
		}
	}
	return nil
}

// viewChange adopts the new view for quorum and coordinator computation.
func (c *Consensus) viewChange(_ *core.Context, msg core.Message) error {
	c.view = msg.(*View)
	return nil
}
