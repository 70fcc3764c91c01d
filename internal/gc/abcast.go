package gc

import (
	"sort"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// abcastReq asks ABcast to totally-order-broadcast a payload or a
// membership operation.
type abcastReq struct {
	kind uint8
	data []byte
	op   byte
	site transport.NodeID
}

// ABcast is the atomic (total-order) broadcast microprotocol (paper §3,
// §7): payloads are disseminated with RelCast, and their delivery order is
// fixed by running consensus on batches of not-yet-delivered message IDs.
// Every site proposes its current pool for the next undecided instance;
// whichever batch the instance's consensus decides is delivered — in
// deterministic ID order — on every site; messages that lost the race stay
// in the pool and ride the next instance.
type ABcast struct {
	mp       *core.Microprotocol
	self     transport.NodeID
	ev       *events
	batchMax int

	// snapshot and install are the application state-transfer hooks
	// (gc.Config.Snapshot / InstallSnapshot): snapshot captures the state
	// every delivery below the sync point produced; install replaces a
	// joiner's state with it.
	snapshot func() []byte
	install  func([]byte)

	pool       map[MsgID]CastMsg
	delivered  map[MsgID]bool
	decisions  map[uint64][]CastMsg
	nextDecide uint64
	proposed   map[uint64]bool
	inFlush    bool
	flushInst  uint64

	// pendingSync holds joiners whose sync must wait for the current
	// flush to finish: a snapshot taken mid-batch would miss the batch
	// tail the joiner is told to skip.
	pendingSync []transport.NodeID

	hABcast, hRecv, hOnDecide, hSync, hSendSync, hPeerReset *core.Handler
}

func newABcast(self transport.NodeID, batchMax int, ev *events, snapshot func() []byte, install func([]byte)) *ABcast {
	a := &ABcast{
		mp:        core.NewMicroprotocol("abcast"),
		self:      self,
		ev:        ev,
		batchMax:  batchMax,
		snapshot:  snapshot,
		install:   install,
		pool:      make(map[MsgID]CastMsg),
		delivered: make(map[MsgID]bool),
		decisions: make(map[uint64][]CastMsg),
		proposed:  make(map[uint64]bool),
	}
	a.hABcast = a.mp.AddHandler("abcast", a.abcast).Emits(ev.Bcast)
	a.hRecv = a.mp.AddHandler("recv", a.recv).Emits(ev.ProposeEv)
	a.hOnDecide = a.mp.AddHandler("onDecide", a.onDecide).Emits(ev.ADeliver, ev.ProposeEv, ev.SyncReq)
	a.hSync = a.mp.AddHandler("sync", a.sync).Emits(ev.ProposeEv)
	a.hSendSync = a.mp.AddHandler("sendSync", a.sendSync).Emits(ev.SendOut)
	a.hPeerReset = a.mp.AddHandler("peerReset", a.peerReset).Emits()
	return a
}

// abcast disseminates the payload via RelCast; ordering starts when the
// message comes back through DeliverOut into the pool.
func (a *ABcast) abcast(ctx *core.Context, msg core.Message) error {
	req := msg.(abcastReq)
	return ctx.Trigger(a.ev.Bcast, &CastMsg{Kind: req.kind, Data: req.data, Op: req.op, Site: req.site})
}

// recv pools reliably-broadcast messages awaiting a total order.
func (a *ABcast) recv(ctx *core.Context, msg core.Message) error {
	m := msg.(CastMsg)
	if m.Kind != castApp && m.Kind != castViewChg {
		return nil // plain/FIFO/causal broadcasts are not ours to order
	}
	if a.delivered[m.ID] {
		return nil
	}
	a.pool[m.ID] = m
	return a.maybePropose(ctx)
}

// maybePropose proposes the pool for the next undecided instance, once
// per instance.
func (a *ABcast) maybePropose(ctx *core.Context) error {
	inst := a.nextDecide
	if a.proposed[inst] || len(a.pool) == 0 {
		return nil
	}
	a.proposed[inst] = true
	batch := make([]CastMsg, 0, len(a.pool))
	for _, m := range a.pool {
		batch = append(batch, m)
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].ID.Less(batch[j].ID) })
	if len(batch) > a.batchMax {
		batch = batch[:a.batchMax]
	}
	return ctx.Trigger(a.ev.ProposeEv, proposeReq{inst: inst, value: batch})
}

// onDecide buffers decisions and delivers them gap-free in instance
// order, each batch in deterministic ID order, deduplicated.
func (a *ABcast) onDecide(ctx *core.Context, msg core.Message) error {
	d := msg.(decision)
	if d.inst < a.nextDecide {
		return nil
	}
	if _, dup := a.decisions[d.inst]; dup {
		return nil
	}
	a.decisions[d.inst] = d.value
	for {
		batch, ok := a.decisions[a.nextDecide]
		if !ok {
			break
		}
		a.inFlush, a.flushInst = true, a.nextDecide
		sort.Slice(batch, func(i, j int) bool { return batch[i].ID.Less(batch[j].ID) })
		for _, m := range batch {
			if a.delivered[m.ID] {
				continue
			}
			a.delivered[m.ID] = true
			delete(a.pool, m.ID)
			if err := ctx.TriggerAll(a.ev.ADeliver, m); err != nil {
				a.inFlush = false
				return err
			}
		}
		delete(a.decisions, a.nextDecide)
		delete(a.proposed, a.nextDecide)
		a.nextDecide++
	}
	a.inFlush = false
	// Emit syncs deferred during the flush, now that every delivery below
	// nextDecide has been applied (snapshot and sync point agree).
	for len(a.pendingSync) > 0 {
		to := a.pendingSync[0]
		a.pendingSync = a.pendingSync[1:]
		if err := ctx.Trigger(a.ev.SyncReq, to); err != nil {
			return err
		}
	}
	return a.maybePropose(ctx)
}

// sync handles a join-time state transfer (layerSync on FromRComm): a
// fresh member installs the shipped application snapshot and
// fast-forwards its instance pointer to where the group's total order
// resumes. Members that have already delivered ignore it, which makes
// the transfer idempotent — every established member sends one, no
// coordinator needed, the first to arrive wins.
func (a *ABcast) sync(ctx *core.Context, msg core.Message) error {
	in := msg.(rcRecvd)
	r := wire.NewReader(in.inner)
	if r.U8() != layerSync {
		return nil
	}
	next := r.U64()
	snap := r.BytesPrefixed()
	if err := r.Err(); err != nil {
		return err
	}
	if a.nextDecide != 0 || len(a.delivered) > 0 || next <= a.nextDecide {
		return nil
	}
	a.nextDecide = next
	if len(snap) > 0 && a.install != nil {
		a.install(append([]byte(nil), snap...))
	}
	for inst := range a.decisions {
		if inst < next {
			delete(a.decisions, inst)
		}
	}
	return a.maybePropose(ctx)
}

// sendSync (SyncReq event) ships a freshly joined site the resume point
// of the total order plus the application snapshot those deliveries
// produced. It is triggered from Membership's deliverView, which runs
// inside the flush of the instance that decided the join — emitting
// there would snapshot mid-batch, so the request parks until onDecide
// finishes the flush and re-triggers it.
func (a *ABcast) sendSync(ctx *core.Context, msg core.Message) error {
	to := msg.(transport.NodeID)
	if a.inFlush {
		a.pendingSync = append(a.pendingSync, to)
		return nil
	}
	var snap []byte
	if a.snapshot != nil {
		snap = a.snapshot()
	}
	return ctx.Trigger(a.ev.SendOut, rcSendReq{to: to, inner: encodeSyncFrame(a.nextDecide, snap)})
}

// peerReset forgets a rejoining site's pooled and delivered message IDs.
// Like RelCast's reset it runs inside the delivery of the site's '+'
// view operation, so all members drop the dead incarnation's history at
// the same point in the total order and the fresh incarnation's IDs
// (sequence restarting at 1) order cleanly.
func (a *ABcast) peerReset(_ *core.Context, msg core.Message) error {
	site := msg.(transport.NodeID)
	for id := range a.pool {
		if id.Origin == site {
			delete(a.pool, id)
		}
	}
	for id := range a.delivered {
		if id.Origin == site {
			delete(a.delivered, id)
		}
	}
	return nil
}
