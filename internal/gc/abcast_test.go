package gc

import (
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// abHarness drives one ABcast microprotocol in isolation, capturing its
// proposals, total-order deliveries, Bcast requests, and sync sends.
type abHarness struct {
	s         *core.Stack
	a         *ABcast
	ev        *events
	spec      *core.Spec
	proposals []proposeReq
	adeliv    []string
	bcasts    []*castMsg
	syncSent  []rcSendReq
	snapped   int    // Snapshot hook invocations
	installed []byte // last InstallSnapshot payload
	capture   *core.Microprotocol
}

// snapshot and install are the harness's application state-transfer
// hooks: snapshot reflects the deliveries so far.
func (h *abHarness) snapshot() []byte {
	h.snapped++
	return []byte(fmt.Sprintf("snap-%d", len(h.adeliv)))
}

func (h *abHarness) install(b []byte) { h.installed = b }

func newABHarness(t *testing.T, batchMax int) *abHarness {
	t.Helper()
	h := &abHarness{ev: newEvents()}
	h.s = core.NewStack(cc.NewVCABasic())
	h.a = newABcast(0, batchMax, h.ev, h.snapshot, h.install)
	capture := core.NewMicroprotocol("capture")
	hProp := capture.AddHandler("propose", func(_ *core.Context, msg core.Message) error {
		h.proposals = append(h.proposals, msg.(proposeReq))
		return nil
	})
	hDeliv := capture.AddHandler("adeliver", func(_ *core.Context, msg core.Message) error {
		h.adeliv = append(h.adeliv, string(msg.(castMsg).Data))
		return nil
	})
	hBcast := capture.AddHandler("bcast", func(_ *core.Context, msg core.Message) error {
		h.bcasts = append(h.bcasts, msg.(*castMsg))
		return nil
	})
	hSend := capture.AddHandler("send", func(_ *core.Context, msg core.Message) error {
		h.syncSent = append(h.syncSent, msg.(rcSendReq))
		return nil
	})
	h.s.Register(h.a.mp, capture)
	h.s.Bind(h.ev.ProposeEv, hProp)
	h.s.Bind(h.ev.ADeliver, hDeliv)
	h.s.Bind(h.ev.Bcast, hBcast)
	h.s.Bind(h.ev.SendOut, hSend)
	h.s.Bind(h.ev.ABcastEv, h.a.hABcast)
	h.s.Bind(h.ev.DeliverOut, h.a.hRecv)
	h.s.Bind(h.ev.Decide, h.a.hOnDecide)
	h.s.Bind(h.ev.SyncIn, h.a.hSync)
	h.s.Bind(h.ev.SyncReq, h.a.hSendSync)
	h.s.Bind(h.ev.PeerReset, h.a.hPeerReset)
	h.capture = capture
	h.spec = core.Access(h.a.mp, capture)
	return h
}

func cm(origin simnet.NodeID, seq uint64, data string) castMsg {
	return castMsg{ID: MsgID{Origin: origin, Seq: seq}, Kind: castApp, Data: []byte(data)}
}

func (h *abHarness) pool(t *testing.T, m castMsg) {
	t.Helper()
	if err := h.s.External(h.spec, h.ev.DeliverOut, m); err != nil {
		t.Fatal(err)
	}
}

// sync hands ABcast a state transfer as RelComm would: the layer tag
// stripped.
func (h *abHarness) sync(t *testing.T, from simnet.NodeID, next uint64, snap []byte) {
	t.Helper()
	if err := h.s.External(h.spec, h.ev.SyncIn, rcRecvd{sender: from, inner: encodeSyncFrame(next, snap)[1:]}); err != nil {
		t.Fatal(err)
	}
}

func (h *abHarness) decide(t *testing.T, inst uint64, batch ...castMsg) {
	t.Helper()
	if err := h.s.External(h.spec, h.ev.Decide, decision{inst: inst, value: batch}); err != nil {
		t.Fatal(err)
	}
}

func TestABcastProposesOncePerInstance(t *testing.T) {
	h := newABHarness(t, 64)
	h.pool(t, cm(1, 1, "a"))
	if len(h.proposals) != 1 || h.proposals[0].inst != 0 {
		t.Fatalf("proposals = %+v", h.proposals)
	}
	// More pool arrivals while instance 0 is open: no second proposal.
	h.pool(t, cm(1, 2, "b"))
	h.pool(t, cm(2, 1, "c"))
	if len(h.proposals) != 1 {
		t.Fatalf("re-proposed for an open instance: %+v", h.proposals)
	}
	// Deciding instance 0 re-proposes the remaining pool for instance 1.
	h.decide(t, 0, cm(1, 1, "a"))
	if len(h.proposals) != 2 || h.proposals[1].inst != 1 || len(h.proposals[1].value) != 2 {
		t.Fatalf("proposals = %+v", h.proposals)
	}
}

func TestABcastDeliversBatchesInIDOrder(t *testing.T) {
	h := newABHarness(t, 64)
	h.decide(t, 0, cm(2, 1, "z"), cm(1, 1, "a"), cm(1, 2, "b"))
	want := []string{"a", "b", "z"} // (1,1) < (1,2) < (2,1)
	if len(h.adeliv) != 3 {
		t.Fatalf("delivered %v", h.adeliv)
	}
	for i, w := range want {
		if h.adeliv[i] != w {
			t.Fatalf("delivered %v, want %v", h.adeliv, want)
		}
	}
}

func TestABcastBuffersOutOfOrderDecisions(t *testing.T) {
	h := newABHarness(t, 64)
	h.decide(t, 2, cm(1, 3, "c"))
	h.decide(t, 1, cm(1, 2, "b"))
	if len(h.adeliv) != 0 {
		t.Fatalf("delivered before the gap filled: %v", h.adeliv)
	}
	h.decide(t, 0, cm(1, 1, "a"))
	want := []string{"a", "b", "c"}
	if len(h.adeliv) != 3 {
		t.Fatalf("delivered %v", h.adeliv)
	}
	for i, w := range want {
		if h.adeliv[i] != w {
			t.Fatalf("delivered %v, want %v", h.adeliv, want)
		}
	}
}

func TestABcastDeduplicatesAcrossBatches(t *testing.T) {
	h := newABHarness(t, 64)
	h.decide(t, 0, cm(1, 1, "a"))
	h.decide(t, 1, cm(1, 1, "a"), cm(1, 2, "b")) // a won two races
	if len(h.adeliv) != 2 || h.adeliv[0] != "a" || h.adeliv[1] != "b" {
		t.Fatalf("delivered %v", h.adeliv)
	}
	// Duplicate decision for a past instance is ignored.
	h.decide(t, 0, cm(9, 9, "ghost"))
	if len(h.adeliv) != 2 {
		t.Fatalf("ghost delivered: %v", h.adeliv)
	}
}

func TestABcastEmptyBatchAdvances(t *testing.T) {
	h := newABHarness(t, 64)
	h.pool(t, cm(1, 1, "a"))
	h.decide(t, 0) // empty decision burns instance 0
	// The pool must be re-proposed for instance 1.
	if len(h.proposals) != 2 || h.proposals[1].inst != 1 {
		t.Fatalf("proposals = %+v", h.proposals)
	}
	h.decide(t, 1, cm(1, 1, "a"))
	if len(h.adeliv) != 1 || h.adeliv[0] != "a" {
		t.Fatalf("delivered %v", h.adeliv)
	}
}

func TestABcastBatchCap(t *testing.T) {
	h := newABHarness(t, 2)
	// Three messages pooled before the first proposal would fire... the
	// first arrival proposes immediately with batch size 1; decide it,
	// then the remaining two must fit the cap.
	h.pool(t, cm(1, 1, "a"))
	h.pool(t, cm(1, 2, "b"))
	h.pool(t, cm(1, 3, "c"))
	h.pool(t, cm(1, 4, "d"))
	h.decide(t, 0, cm(1, 1, "a"))
	if got := len(h.proposals[1].value); got != 2 {
		t.Fatalf("batch size = %d, want cap 2", got)
	}
}

// TestABcastDeliversOrderedKindsOnly: a decided cast of a kind ABcast
// does not order, which only a faulty peer can propose, is delivered
// nowhere; the batch's other casts are.
func TestABcastDeliversOrderedKindsOnly(t *testing.T) {
	h := newABHarness(t, 64)
	plain := castMsg{ID: MsgID{Origin: 1, Seq: 1}, Kind: castRApp, Data: []byte("plain")}
	h.decide(t, 0, plain, cm(1, 2, "a"))
	if len(h.adeliv) != 1 || h.adeliv[0] != "a" {
		t.Fatalf("delivered %v, want [a]", h.adeliv)
	}
}

func TestABcastSyncFastForwards(t *testing.T) {
	h := newABHarness(t, 64)
	h.sync(t, 1, 5, nil)
	// Decisions below the sync point are ignored; 5 delivers.
	h.decide(t, 3, cm(1, 1, "old"))
	h.decide(t, 5, cm(1, 2, "new"))
	if len(h.adeliv) != 1 || h.adeliv[0] != "new" {
		t.Fatalf("delivered %v", h.adeliv)
	}
}

// TestABcastSyncDeliversEarlierDecision: a joiner can decide its sync
// point on a voted ACCEPT before any sync frame arrives. The sync then
// delivers that buffered decision itself: no later Decide may come.
func TestABcastSyncDeliversEarlierDecision(t *testing.T) {
	h := newABHarness(t, 64)
	h.decide(t, 5, cm(1, 2, "first"))
	if len(h.adeliv) != 0 {
		t.Fatalf("delivered %v before the sync", h.adeliv)
	}
	h.sync(t, 1, 5, nil)
	if len(h.adeliv) != 1 || h.adeliv[0] != "first" {
		t.Fatalf("delivered %v after the sync, want [first]", h.adeliv)
	}
}

func TestABcastSyncInstallsSnapshot(t *testing.T) {
	h := newABHarness(t, 64)
	h.sync(t, 1, 4, []byte("state@4"))
	if string(h.installed) != "state@4" {
		t.Fatalf("installed %q, want state@4", h.installed)
	}
	// A second sync (another established member's copy) is ignored.
	h.sync(t, 2, 6, []byte("state@6"))
	if string(h.installed) != "state@4" {
		t.Fatal("duplicate sync must not reinstall")
	}
}

func TestABcastSyncIgnoredOnceEstablished(t *testing.T) {
	h := newABHarness(t, 64)
	h.decide(t, 0, cm(1, 1, "a"))
	h.sync(t, 1, 9, []byte("stale"))
	if h.installed != nil {
		t.Fatal("established member must not install a snapshot")
	}
	h.decide(t, 1, cm(1, 2, "b"))
	if len(h.adeliv) != 2 {
		t.Fatalf("sync after delivery must be ignored; delivered %v", h.adeliv)
	}
}

// decodeSyncSent unpacks a captured sync frame.
func decodeSyncSent(t *testing.T, req rcSendReq) (next uint64, snap []byte) {
	t.Helper()
	r := wire.NewReader(req.inner)
	if r.U8() != layerSync {
		t.Fatal("not a sync frame")
	}
	next = r.U64()
	snap = r.BytesPrefixed()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return next, snap
}

func TestABcastSendSyncCarriesSnapshot(t *testing.T) {
	h := newABHarness(t, 64)
	h.decide(t, 0, cm(1, 1, "a"))
	// Outside a flush: emit immediately, snapshot reflecting 1 delivery.
	if err := h.s.External(h.spec, h.ev.SyncReq, simnet.NodeID(2)); err != nil {
		t.Fatal(err)
	}
	if len(h.syncSent) != 1 || h.syncSent[0].to != 2 {
		t.Fatalf("sync sends = %+v", h.syncSent)
	}
	next, snap := decodeSyncSent(t, h.syncSent[0])
	if next != 1 || string(snap) != "snap-1" {
		t.Fatalf("sync = (%d, %q), want (1, snap-1)", next, snap)
	}
}

func TestABcastSendSyncDefersUntilFlushEnd(t *testing.T) {
	h := newABHarness(t, 64)
	// A join decided mid-batch: the view op's deliverView triggers
	// SyncReq while the batch's tail ("z") is still undelivered. The
	// sync must wait, or the snapshot would miss "z" while the joiner
	// skips the instance that carries it.
	join := castMsg{ID: MsgID{Origin: 1, Seq: 1}, Kind: castViewChg, Op: '+', Site: 2}
	syncer := core.NewMicroprotocol("syncer")
	hSyncer := syncer.AddHandler("onJoin", func(ctx *core.Context, msg core.Message) error {
		h.adeliv = append(h.adeliv, "view")
		return ctx.Trigger(h.ev.SyncReq, msg.(castMsg).Site)
	})
	h.s.Register(syncer)
	h.s.Bind(h.ev.DeliverView, hSyncer)
	h.spec = core.Access(h.a.mp, syncer, h.capture)
	h.decide(t, 0, join, cm(1, 2, "z"))
	if len(h.syncSent) != 1 {
		t.Fatalf("sync sends = %+v", h.syncSent)
	}
	next, snap := decodeSyncSent(t, h.syncSent[0])
	// Both deliveries (the view op and "z") precede the snapshot, and
	// the joiner resumes at instance 1.
	if next != 1 || string(snap) != "snap-2" {
		t.Fatalf("sync = (%d, %q), want (1, snap-2)", next, snap)
	}
}

func TestABcastPeerResetForgetsOrigin(t *testing.T) {
	h := newABHarness(t, 64)
	h.decide(t, 0, cm(2, 1, "old"))
	h.pool(t, cm(2, 7, "pooled"))
	if err := h.s.External(h.spec, h.ev.PeerReset, simnet.NodeID(2)); err != nil {
		t.Fatal(err)
	}
	// The fresh incarnation's restarted IDs are orderable again...
	h.decide(t, 1, cm(2, 1, "new"))
	if len(h.adeliv) != 2 || h.adeliv[1] != "new" {
		t.Fatalf("delivered %v, want old then new", h.adeliv)
	}
	// ...and the dead incarnation's pooled leftovers are gone.
	if _, ok := h.a.pool[MsgID{Origin: 2, Seq: 7}]; ok {
		t.Fatal("pool entry for the dead incarnation survived the reset")
	}
}

func TestABcastAbcastTriggersBcast(t *testing.T) {
	h := newABHarness(t, 64)
	if err := h.s.External(h.spec, h.ev.ABcastEv, abcastReq{kind: castApp, data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if len(h.bcasts) != 1 || string(h.bcasts[0].Data) != "x" || h.bcasts[0].Kind != castApp {
		t.Fatalf("bcasts = %+v", h.bcasts)
	}
	if h.bcasts[0].ID != (MsgID{}) {
		t.Fatal("ID must be assigned by RelCast, not ABcast")
	}
}
