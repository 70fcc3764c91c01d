package gc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/simnet"
)

// rcHarness wires a bare NetOut + RelComm stack on node 0 of a 2-node
// simnet, for white-box flow-control and retransmission tests.
type rcHarness struct {
	net   *simnet.Network
	stack *core.Stack
	no    *NetOut
	rc    *RelComm
	ev    *events
	spec  *core.Spec

	mu    sync.Mutex
	recvd []rcRecvd // FromRComm deliveries captured by the sink mp
}

func newRCHarness(t *testing.T, window int) *rcHarness {
	t.Helper()
	h := &rcHarness{
		net: simnet.New(simnet.Config{Nodes: 2}),
		ev:  newEvents(),
	}
	t.Cleanup(h.net.Close)
	h.stack = core.NewStack(cc.NewVCABasic())
	no := newNetOut(h.net.Node(0))
	h.no = no
	h.rc = newRelComm(0, NewView(0, 1), 50*time.Millisecond, window, h.ev)
	sink := core.NewMicroprotocol("rcSink")
	hSink := sink.AddHandler("capture", func(_ *core.Context, msg core.Message) error {
		h.mu.Lock()
		h.recvd = append(h.recvd, msg.(rcRecvd))
		h.mu.Unlock()
		return nil
	})
	h.stack.Register(no.mp, h.rc.mp, sink)
	h.stack.Bind(h.ev.NetSend, no.send)
	h.stack.Bind(h.ev.SendOut, h.rc.hSend)
	h.stack.Bind(h.ev.FromNet, h.rc.hRecv)
	h.stack.Bind(h.ev.RetrTick, h.rc.hRetransmit)
	h.stack.Bind(h.ev.ViewChange, h.rc.hViewChange)
	h.stack.Bind(h.ev.FromRComm, hSink)
	h.spec = core.Access(no.mp, h.rc.mp, sink)
	return h
}

// delivered returns the payloads handed upward so far. FromRComm is
// triggered asynchronously, so callers poll briefly.
func (h *rcHarness) delivered(t *testing.T, want int) []string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		h.mu.Lock()
		var out []string
		for _, r := range h.recvd {
			out = append(out, string(r.inner))
		}
		h.mu.Unlock()
		if len(out) >= want || time.Now().After(deadline) {
			return out
		}
		time.Sleep(time.Millisecond)
	}
}

// external runs one computation and then, as Site.run does, flushes the
// egress buffer.
func (h *rcHarness) external(t *testing.T, et *core.EventType, msg core.Message) {
	t.Helper()
	err := h.stack.External(h.spec, et, msg)
	h.no.flush()
	if err != nil {
		t.Fatal(err)
	}
}

func (h *rcHarness) sendTo1(t *testing.T, payload string) {
	t.Helper()
	h.external(t, h.ev.SendOut, rcSendReq{to: 1, inner: []byte(payload)})
}

// recvData drains node 1's inbox, returning the seqs of the data frames.
func (h *rcHarness) recvData(t *testing.T) []uint64 {
	t.Helper()
	var seqs []uint64
	for {
		d, ok := h.net.Node(1).TryRecv()
		if !ok {
			return seqs
		}
		for p := d.Payload; len(p) > 0; {
			f, rest, err := decodeFrame(p)
			if err != nil {
				t.Fatal(err)
			}
			if p = rest; f.kind == dgData {
				seqs = append(seqs, f.seq)
			}
		}
	}
}

// ackFrom1 feeds an ack for seq into node 0's stack, echoing node 0's
// own epoch (as a real peer would).
func (h *rcHarness) ackFrom1(t *testing.T, seq uint64) {
	t.Helper()
	h.external(t, h.ev.FromNet, simnet.Datagram{From: 1, To: 0, Payload: appendAck(nil, h.rc.epoch, seq)})
}

func TestFlowControlWindowLimitsInFlight(t *testing.T) {
	h := newRCHarness(t, 2)
	for i := 0; i < 5; i++ {
		h.sendTo1(t, "m")
	}
	if got := h.recvData(t); len(got) != 2 {
		t.Fatalf("transmitted %d data datagrams, window is 2", len(got))
	}
	if h.rc.Queued(1) != 3 {
		t.Fatalf("queued = %d, want 3", h.rc.Queued(1))
	}
	// One ack opens one slot.
	h.ackFrom1(t, 1)
	if got := h.recvData(t); len(got) != 1 {
		t.Fatalf("after ack: %d new datagrams, want 1", len(got))
	}
	if h.rc.Queued(1) != 2 {
		t.Fatalf("queued = %d, want 2", h.rc.Queued(1))
	}
	// Remaining acks drain the rest.
	h.ackFrom1(t, 2)
	h.ackFrom1(t, 3)
	h.ackFrom1(t, 4)
	h.ackFrom1(t, 5)
	if h.rc.Queued(1) != 0 {
		t.Fatalf("queued = %d, want 0", h.rc.Queued(1))
	}
}

func TestFlowControlUnlimitedWindow(t *testing.T) {
	h := newRCHarness(t, -1)
	for i := 0; i < 10; i++ {
		h.sendTo1(t, "m")
	}
	if got := h.recvData(t); len(got) != 10 {
		t.Fatalf("transmitted %d, want all 10 with flow control disabled", len(got))
	}
}

func TestFlowControlQueueDroppedOnViewRemoval(t *testing.T) {
	h := newRCHarness(t, 1)
	for i := 0; i < 4; i++ {
		h.sendTo1(t, "m")
	}
	if h.rc.Queued(1) != 3 {
		t.Fatalf("queued = %d", h.rc.Queued(1))
	}
	before := h.rc.DroppedStale()
	h.external(t, h.ev.ViewChange, NewView(0))
	if h.rc.Queued(1) != 0 {
		t.Fatal("queue must be dropped when the peer leaves the view")
	}
	if h.rc.DroppedStale() != before+3 {
		t.Fatalf("droppedStale = %d, want %d", h.rc.DroppedStale(), before+3)
	}
}

func TestRetransmitResendsUnacked(t *testing.T) {
	h := newRCHarness(t, 0) // window 0 → unlimited (site default applies elsewhere)
	h.sendTo1(t, "m")
	if got := h.recvData(t); len(got) != 1 {
		t.Fatalf("initial send missing: %v", got)
	}
	time.Sleep(60 * time.Millisecond) // past RTO
	h.external(t, h.ev.RetrTick, nil)
	if got := h.recvData(t); len(got) != 1 || got[0] != 1 {
		t.Fatalf("retransmission = %v, want seq 1 again", got)
	}
	// Acked messages are not retransmitted.
	h.ackFrom1(t, 1)
	time.Sleep(60 * time.Millisecond)
	h.external(t, h.ev.RetrTick, nil)
	if got := h.recvData(t); len(got) != 0 {
		t.Fatalf("acked message retransmitted: %v", got)
	}
}

// dataFrom1 injects a data datagram from peer 1 with an explicit epoch.
func (h *rcHarness) dataFrom1(t *testing.T, epoch uint32, seq uint64, payload string) {
	t.Helper()
	h.external(t, h.ev.FromNet, simnet.Datagram{From: 1, To: 0, Payload: appendData(nil, epoch, seq, []byte(payload))})
}

// TestEpochChangeResetsDedup is the crash-restart regression: a peer that
// restarts announces a fresh epoch and restarts its sequence space at 1.
// Without the epoch reset, the dead incarnation's high-water mark would
// swallow every post-restart message.
func TestEpochChangeResetsDedup(t *testing.T) {
	h := newRCHarness(t, -1)
	h.dataFrom1(t, 10, 1, "a")
	h.dataFrom1(t, 10, 2, "b")
	h.dataFrom1(t, 10, 2, "b-dup") // same epoch, same seq: deduplicated
	if got := h.delivered(t, 2); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("before restart: delivered %v, want [a b]", got)
	}
	// Peer restarts: new epoch, seq restarts at 1. Must be delivered.
	h.dataFrom1(t, 11, 1, "after-restart")
	if got := h.delivered(t, 3); len(got) != 3 || got[2] != "after-restart" {
		t.Fatalf("after restart: delivered %v, want after-restart last", got)
	}
	// Dedup works within the new epoch too.
	h.dataFrom1(t, 11, 1, "after-restart")
	time.Sleep(20 * time.Millisecond)
	if got := h.delivered(t, 3); len(got) != 3 {
		t.Fatalf("new-epoch duplicate delivered: %v", got)
	}
}

// TestAckFromStaleEpochIgnored: after this site restarts, acks addressed
// to its previous incarnation must not clear the new incarnation's
// retransmission buffer (the seq numbers would collide otherwise).
func TestAckFromStaleEpochIgnored(t *testing.T) {
	h := newRCHarness(t, -1)
	h.sendTo1(t, "m")
	if len(h.rc.pending[1]) != 1 {
		t.Fatalf("pending = %d, want 1", len(h.rc.pending[1]))
	}
	// Ack carrying a different epoch — as if meant for a prior incarnation.
	h.external(t, h.ev.FromNet, simnet.Datagram{From: 1, To: 0, Payload: appendAck(nil, h.rc.epoch+1, 1)})
	if len(h.rc.pending[1]) != 1 {
		t.Fatal("stale-epoch ack cleared the retransmission buffer")
	}
	h.ackFrom1(t, 1) // correct epoch clears it
	if len(h.rc.pending[1]) != 0 {
		t.Fatal("current-epoch ack did not clear the buffer")
	}
}

func TestSendToNonMemberDropped(t *testing.T) {
	h := newRCHarness(t, 4)
	h.sendTo1(t, "x")
	h.external(t, h.ev.ViewChange, NewView(0))
	before := h.rc.DroppedStale()
	h.sendTo1(t, "y")
	if h.rc.DroppedStale() != before+1 {
		t.Fatal("send to a non-member must be dropped and counted")
	}
}

// TestMalformedTailKeepsPrefix: a datagram whose last frame is cut short
// is reported, but the well-formed frames before it are acknowledged and
// delivered.
func TestMalformedTailKeepsPrefix(t *testing.T) {
	h := newRCHarness(t, -1)
	p := appendData(nil, 10, 1, []byte("a"))
	p = appendData(p, 10, 2, []byte("b"))
	tail := appendData(nil, 10, 3, []byte("lost"))
	p = append(p, tail[:len(tail)-2]...)
	err := h.stack.External(h.spec, h.ev.FromNet, simnet.Datagram{From: 1, To: 0, Payload: p})
	h.no.flush()
	if !errors.Is(err, errBadFrame) {
		t.Fatalf("error = %v, want the malformed tail reported", err)
	}
	if got := h.delivered(t, 2); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("delivered %v, want [a b]", got)
	}
	// Both were acknowledged, in one datagram.
	d, ok := h.net.Node(1).TryRecv()
	if !ok || classify(d.Payload) != classAck || len(d.Payload) != 2*ackLen {
		t.Fatalf("acks came back as %d bytes (ok=%v), want one datagram of two acks", len(d.Payload), ok)
	}
}
