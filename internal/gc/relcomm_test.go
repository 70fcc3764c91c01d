package gc

import (
	"bytes"
	"errors"
	"fmt"
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

// unlimited is a send window no harness test fills.
const unlimited = 1 << 20

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

// tagged prefixes a test payload with RelCast's layer tag: RelComm hands
// an inner payload only to the layer its tag names, and the harness sink
// is bound to RelCast's event.
func tagged(payload string) string { return string([]byte{layerRelCast}) + payload }

func (h *rcHarness) sendTo1(t *testing.T, payload string) {
	t.Helper()
	h.external(t, h.ev.SendOut, rcSendReq{to: 1, inner: []byte(tagged(payload))})
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
			if p = rest; f.Kind == dgData {
				seqs = append(seqs, f.Seq)
			}
		}
	}
}

// ackFrom1 feeds a cumulative ack up to seq into node 0's stack, echoing
// node 0's own epoch (as a real peer would).
func (h *rcHarness) ackFrom1(t *testing.T, seq uint64) {
	t.Helper()
	h.external(t, h.ev.FromNet, simnet.Datagram{From: 1, To: 0, Payload: ackFrame(h.rc.epoch, seq)})
}

func TestFlowControlWindowLimitsInFlight(t *testing.T) {
	h := newRCHarness(t, 2)
	for i := 0; i < 5; i++ {
		h.sendTo1(t, "m")
	}
	if got := h.recvData(t); len(got) != 2 {
		t.Fatalf("transmitted %d data datagrams, window is 2", len(got))
	}
	if queued(h.rc, 1) != 3 {
		t.Fatalf("queued = %d, want 3", queued(h.rc, 1))
	}
	// Acking seq 1 opens one slot.
	h.ackFrom1(t, 1)
	if got := h.recvData(t); len(got) != 1 {
		t.Fatalf("after ack: %d new datagrams, want 1", len(got))
	}
	if queued(h.rc, 1) != 2 {
		t.Fatalf("queued = %d, want 2", queued(h.rc, 1))
	}
	// One cumulative ack opens two slots.
	h.ackFrom1(t, 3)
	if got := h.recvData(t); len(got) != 2 || queued(h.rc, 1) != 0 {
		t.Fatalf("after acking up to 3: %d new datagrams and %d queued, want 2 and 0", len(got), queued(h.rc, 1))
	}
}

// TestFlowControlUnlimitedWindow: sends that fit in the window all leave
// at once; nothing queues.
func TestFlowControlUnlimitedWindow(t *testing.T) {
	h := newRCHarness(t, unlimited)
	for i := 0; i < 10; i++ {
		h.sendTo1(t, "m")
	}
	if got := h.recvData(t); len(got) != 10 || queued(h.rc, 1) != 0 {
		t.Fatalf("transmitted %d with %d queued, want all 10 inside the window", len(got), queued(h.rc, 1))
	}
}

func TestFlowControlQueueDroppedOnViewRemoval(t *testing.T) {
	h := newRCHarness(t, 1)
	for i := 0; i < 4; i++ {
		h.sendTo1(t, "m")
	}
	if queued(h.rc, 1) != 3 {
		t.Fatalf("queued = %d", queued(h.rc, 1))
	}
	before := h.rc.DroppedStale()
	h.external(t, h.ev.ViewChange, NewView(0))
	if queued(h.rc, 1) != 0 {
		t.Fatal("queue must be dropped when the peer leaves the view")
	}
	if h.rc.DroppedStale() != before+3 {
		t.Fatalf("droppedStale = %d, want %d", h.rc.DroppedStale(), before+3)
	}
}

func TestRetransmitResendsUnacked(t *testing.T) {
	h := newRCHarness(t, unlimited)
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
	h.external(t, h.ev.FromNet, simnet.Datagram{From: 1, To: 0, Payload: dataFrame(epoch, seq, tagged(payload))})
}

// TestEpochChangeResetsDedup is the crash-restart regression: a peer that
// restarts announces a fresh epoch and restarts its sequence space at 1.
// Without the epoch reset, the dead incarnation's high-water mark would
// swallow every post-restart message.
func TestEpochChangeResetsDedup(t *testing.T) {
	h := newRCHarness(t, unlimited)
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
	h := newRCHarness(t, unlimited)
	h.sendTo1(t, "m")
	if n := h.rc.peers[1].State().Unacked; n != 1 {
		t.Fatalf("unacked = %d, want 1", n)
	}
	// Ack carrying a different epoch — as if meant for a prior incarnation.
	h.external(t, h.ev.FromNet, simnet.Datagram{From: 1, To: 0, Payload: ackFrame(h.rc.epoch+1, 1)})
	if h.rc.peers[1].State().Unacked != 1 {
		t.Fatal("stale-epoch ack cleared the retransmission buffer")
	}
	h.ackFrom1(t, 1) // correct epoch clears it
	if h.rc.peers[1].State().Unacked != 0 {
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
// is reported, but the well-formed frames before it are delivered, and
// both are acknowledged by one cumulative ack.
func TestMalformedTailKeepsPrefix(t *testing.T) {
	h := newRCHarness(t, unlimited)
	p := append(dataFrame(10, 1, tagged("a")), dataFrame(10, 2, tagged("b"))...)
	tail := dataFrame(10, 3, tagged("lost"))
	p = append(p, tail[:len(tail)-2]...)
	err := h.stack.External(h.spec, h.ev.FromNet, simnet.Datagram{From: 1, To: 0, Payload: p})
	h.no.flush()
	if !errors.Is(err, errBadFrame) {
		t.Fatalf("error = %v, want the malformed tail reported", err)
	}
	if got := h.delivered(t, 2); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("delivered %v, want [a b]", got)
	}
	// The ack is owed, not sent: without a window, it waits for a data
	// frame to peer 1 or the tick.
	if d, ok := h.net.Node(1).TryRecv(); ok {
		t.Fatalf("%d bytes sent back before the tick, want nothing", len(d.Payload))
	}
	h.external(t, h.ev.RetrTick, nil)
	want := ackFrame(10, 2)
	if d, ok := h.net.Node(1).TryRecv(); !ok || !bytes.Equal(d.Payload, want) {
		t.Fatalf("tick sent %v (ok=%v), want one cumulative ack of seq 2", d.Payload, ok)
	}
}

// recvFrames drains node 1's inbox, returning every frame in it.
func (h *rcHarness) recvFrames(t *testing.T) []frame {
	t.Helper()
	var frames []frame
	for {
		d, ok := h.net.Node(1).TryRecv()
		if !ok {
			return frames
		}
		for p := d.Payload; len(p) > 0; {
			f, rest, err := decodeFrame(p)
			if err != nil {
				t.Fatal(err)
			}
			frames, p = append(frames, f), rest
		}
	}
}

// TestAckRidesDataFrame: data from a peer is owed an ack, not sent one;
// the next data frame to the peer carries it, and then the tick finds
// nothing owed.
func TestAckRidesDataFrame(t *testing.T) {
	h := newRCHarness(t, unlimited)
	h.dataFrom1(t, 10, 1, "a")
	h.dataFrom1(t, 10, 2, "b")
	if got := h.recvFrames(t); len(got) != 0 {
		t.Fatalf("sent %+v on receipt, want nothing", got)
	}
	h.sendTo1(t, "m")
	got := h.recvFrames(t)
	if len(got) != 1 || got[0].Kind != dgData || got[0].AckEpoch != 10 || got[0].Ack != 2 || got[0].Epoch != h.rc.epoch {
		t.Fatalf("sent %+v, want one data frame acking seq 2 of epoch 10", got)
	}
	h.external(t, h.ev.RetrTick, nil)
	if got := h.recvFrames(t); len(got) != 0 {
		t.Fatalf("tick sent %+v after the ack rode a data frame, want nothing", got)
	}
}

// TestAckImmediateOnDuplicate: a duplicate means the sender is
// retransmitting, so it is acked at once — even when the ack it repeats
// was already paid.
func TestAckImmediateOnDuplicate(t *testing.T) {
	h := newRCHarness(t, unlimited)
	h.dataFrom1(t, 10, 1, "a")
	h.external(t, h.ev.RetrTick, nil)
	if got := h.recvFrames(t); len(got) != 1 || got[0].Kind != dgAck || got[0].Seq != 1 {
		t.Fatalf("tick sent %+v, want a cumulative ack of seq 1", got)
	}
	h.dataFrom1(t, 10, 1, "a")
	if got := h.recvFrames(t); len(got) != 1 || got[0].Kind != dgAck || got[0].Epoch != 10 || got[0].Seq != 1 {
		t.Fatalf("duplicate answered by %+v, want a cumulative ack of seq 1 at once", got)
	}
}

// TestAckHalfWindow: once half of the send window is owed, the ack leaves at
// once, so a sender that sends nothing back never fills its window.
func TestAckHalfWindow(t *testing.T) {
	h := newRCHarness(t, 4)
	h.dataFrom1(t, 10, 1, "a")
	if got := h.recvFrames(t); len(got) != 0 {
		t.Fatalf("sent %+v with one frame owed, want nothing", got)
	}
	h.dataFrom1(t, 10, 2, "b")
	if got := h.recvFrames(t); len(got) != 1 || got[0].Kind != dgAck || got[0].Seq != 2 {
		t.Fatalf("sent %+v with two of a four-frame window owed, want a cumulative ack of seq 2", got)
	}
}

// TestAckSelectiveAboveGap: a frame above a gap is owed a selective ack,
// which the tick pays while the gap stays open; once it closes, the
// cumulative ack covers it. On the sending side, a selective ack keeps
// the frame from being retransmitted, and the cumulative ack that closes
// the gap moves the base past it.
func TestAckSelectiveAboveGap(t *testing.T) {
	h := newRCHarness(t, unlimited)
	h.dataFrom1(t, 10, 1, "a")
	h.dataFrom1(t, 10, 3, "c")
	h.external(t, h.ev.RetrTick, nil)
	got := h.recvFrames(t)
	if len(got) != 2 || got[0].Kind != dgSack || got[0].Seq != 3 || got[1].Kind != dgAck || got[1].Seq != 1 {
		t.Fatalf("tick sent %+v, want a selective ack of 3 and a cumulative ack of 1", got)
	}
	h.dataFrom1(t, 10, 4, "d")
	h.dataFrom1(t, 10, 2, "b")
	h.external(t, h.ev.RetrTick, nil)
	if got := h.recvFrames(t); len(got) != 1 || got[0].Kind != dgAck || got[0].Seq != 4 {
		t.Fatalf("tick sent %+v after the gap closed, want one cumulative ack of 4", got)
	}

	for i := 0; i < 3; i++ {
		h.sendTo1(t, "m")
	}
	h.recvFrames(t)
	sack := appendFrame(nil, &frame{Kind: dgSack, Epoch: h.rc.epoch, Seq: 2})
	h.external(t, h.ev.FromNet, simnet.Datagram{From: 1, To: 0, Payload: sack})
	time.Sleep(60 * time.Millisecond) // past RTO
	h.external(t, h.ev.RetrTick, nil)
	if got := h.recvData(t); fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("retransmitted %v, want [1 3]: seq 2 was selectively acked", got)
	}
	h.ackFrom1(t, 1)
	if l := h.rc.peers[1].State(); l.Base != 2 || l.Unacked != 1 {
		t.Fatalf("after acking up to 1: base %d with %d unacked, want 2 and 1", l.Base, l.Unacked)
	}
}

// TestAckSenderBaseStartsWindow: a receiver that has never heard from a
// sender starts its dedup window at the sender's base, so the first frame
// it gets is in order, and a frame at or below the base is a duplicate.
func TestAckSenderBaseStartsWindow(t *testing.T) {
	h := newRCHarness(t, unlimited)
	p := appendFrame(nil, &frame{Kind: dgData, Epoch: 10, Seq: 101, Base: 100, Inner: []byte(tagged("a"))})
	h.external(t, h.ev.FromNet, simnet.Datagram{From: 1, To: 0, Payload: p})
	if got := h.delivered(t, 1); len(got) != 1 {
		t.Fatalf("delivered %v, want [a]", got)
	}
	if seen := h.rc.peers[1].State(); seen.Low != 101 || seen.Sparse != 0 {
		t.Fatalf("window low %d, sparse %d; want 101 and 0", seen.Low, seen.Sparse)
	}
	h.external(t, h.ev.RetrTick, nil)
	if got := h.recvFrames(t); len(got) != 1 || got[0].Seq != 101 {
		t.Fatalf("tick sent %+v, want a cumulative ack of 101 and nothing for the base", got)
	}
	h.dataFrom1(t, 10, 50, "old")
	if got := h.recvFrames(t); len(got) != 1 || got[0].Kind != dgAck || got[0].Seq != 101 {
		t.Fatalf("a frame below the base got %+v, want an immediate cumulative ack of 101", got)
	}
	if got := h.delivered(t, 1); len(got) != 1 {
		t.Fatalf("delivered %v: a frame below the base got through", got)
	}
}

// queued reports the messages waiting for window space to the peer.
func queued(rc *RelComm, to simnet.NodeID) int {
	if l := rc.peers[to]; l != nil {
		return l.State().Queued
	}
	return 0
}
