package ctp

import (
	"testing"
	"time"

	"repro/internal/arq"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/wire"
)

// layerHarness drives one layer in isolation, capturing what it sends
// down and what it releases up.
type layerHarness struct {
	s      *core.Stack
	spec   *core.Spec
	evDown *core.EventType
	evUp   *core.EventType
	down   [][]byte
	up     [][]byte
}

// newLayerHarness wires construct(down, up) into a capture stack.
func newLayerHarness(t *testing.T, construct func(down, up *core.EventType) (*core.Microprotocol, *core.Handler, *core.Handler)) (*layerHarness, *core.EventType, *core.EventType) {
	t.Helper()
	h := &layerHarness{
		s:      core.NewStack(cc.NewVCABasic()),
		evDown: core.NewEventType("down"),
		evUp:   core.NewEventType("up"),
	}
	capture := core.NewMicroprotocol("capture")
	hDown := capture.AddHandler("down", func(_ *core.Context, msg core.Message) error {
		h.down = append(h.down, append([]byte(nil), msg.([]byte)...))
		return nil
	})
	hUp := capture.AddHandler("up", func(_ *core.Context, msg core.Message) error {
		h.up = append(h.up, append([]byte(nil), msg.([]byte)...))
		return nil
	})
	mp, hSend, hRecv := construct(h.evDown, h.evUp)
	h.s.Register(mp, capture)
	h.s.Bind(h.evDown, hDown)
	h.s.Bind(h.evUp, hUp)
	evSend := core.NewEventType("send")
	evRecv := core.NewEventType("recv")
	h.s.Bind(evSend, hSend)
	h.s.Bind(evRecv, hRecv)
	h.spec = core.Access(mp, capture)
	return h, evSend, evRecv
}

func (h *layerHarness) external(t *testing.T, ev *core.EventType, msg []byte) {
	t.Helper()
	if err := h.s.External(h.spec, ev, msg); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentSplitsAtMSS(t *testing.T) {
	var seg *Segment
	h, evSend, evRecv := newLayerHarness(t, func(down, up *core.EventType) (*core.Microprotocol, *core.Handler, *core.Handler) {
		seg = newSegment(4, down, up)
		return seg.mp, seg.hSend, seg.hRecv
	})
	h.external(t, evSend, []byte("0123456789")) // 10 bytes, MSS 4 → 3 frags
	if len(h.down) != 3 {
		t.Fatalf("fragments = %d, want 3", len(h.down))
	}
	// Feed them back (out of order) and expect one reassembled message.
	h.external(t, evRecv, h.down[2])
	h.external(t, evRecv, h.down[0])
	if len(h.up) != 0 {
		t.Fatal("delivered before reassembly complete")
	}
	h.external(t, evRecv, h.down[1])
	if len(h.up) != 1 || string(h.up[0]) != "0123456789" {
		t.Fatalf("reassembled = %q", h.up)
	}
	// Duplicate fragments after delivery start a fresh partial but never
	// complete; nothing more is delivered.
	h.external(t, evRecv, h.down[1])
	if len(h.up) != 1 {
		t.Fatal("duplicate fragment re-delivered")
	}
}

func TestSegmentSingleFragmentFastPath(t *testing.T) {
	var seg *Segment
	h, evSend, evRecv := newLayerHarness(t, func(down, up *core.EventType) (*core.Microprotocol, *core.Handler, *core.Handler) {
		seg = newSegment(1024, down, up)
		return seg.mp, seg.hSend, seg.hRecv
	})
	h.external(t, evSend, []byte("small"))
	if len(h.down) != 1 {
		t.Fatalf("fragments = %d", len(h.down))
	}
	h.external(t, evRecv, h.down[0])
	if len(h.up) != 1 || string(h.up[0]) != "small" {
		t.Fatalf("up = %q", h.up)
	}
}

func TestSegmentMalformedDropped(t *testing.T) {
	var seg *Segment
	h, _, evRecv := newLayerHarness(t, func(down, up *core.EventType) (*core.Microprotocol, *core.Handler, *core.Handler) {
		seg = newSegment(4, down, up)
		return seg.mp, seg.hSend, seg.hRecv
	})
	// idx ≥ cnt is malformed and must be dropped without error.
	w := wire.NewWriter(16)
	w.UVarint(1)
	w.U16(5)
	w.U16(2)
	w.BytesPrefixed([]byte("x"))
	h.external(t, evRecv, w.Bytes())
	if len(h.up) != 0 {
		t.Fatal("malformed fragment delivered")
	}
}

func TestOrderReleasesInSequence(t *testing.T) {
	var ord *Order
	h, evSend, evRecv := newLayerHarness(t, func(down, up *core.EventType) (*core.Microprotocol, *core.Handler, *core.Handler) {
		ord = newOrder(down, up)
		return ord.mp, ord.hSend, ord.hRecv
	})
	for _, m := range []string{"a", "b", "c"} {
		h.external(t, evSend, []byte(m))
	}
	if len(h.down) != 3 {
		t.Fatalf("down = %d", len(h.down))
	}
	// Deliver 3rd, then 1st, then 2nd: release order must be a, b, c.
	h.external(t, evRecv, h.down[2])
	if len(h.up) != 0 {
		t.Fatal("released out of order")
	}
	h.external(t, evRecv, h.down[0])
	if len(h.up) != 1 || string(h.up[0]) != "a" {
		t.Fatalf("up = %q", h.up)
	}
	h.external(t, evRecv, h.down[1])
	if len(h.up) != 3 || string(h.up[1]) != "b" || string(h.up[2]) != "c" {
		t.Fatalf("up = %q", h.up)
	}
	// Duplicates of released frames are dropped.
	h.external(t, evRecv, h.down[0])
	if len(h.up) != 3 {
		t.Fatal("duplicate released twice")
	}
}

// newARQHarness wires an ARQ layer with the given RTO and window, its
// retransmission tick bound to the returned event.
func newARQHarness(t *testing.T, rto time.Duration, window int) (*layerHarness, *ARQ, *core.EventType, *core.EventType, *core.EventType) {
	t.Helper()
	var a *ARQ
	h, evSend, evRecv := newLayerHarness(t, func(down, up *core.EventType) (*core.Microprotocol, *core.Handler, *core.Handler) {
		a = newARQ(rto, window, down, up)
		return a.mp, a.hSend, a.hRecv
	})
	evTick := core.NewEventType("tick")
	h.s.Bind(evTick, a.hRetransmit)
	return h, a, evSend, evRecv, evTick
}

// downFrame decodes the i-th frame the harness sent down.
func (h *layerHarness) downFrame(t *testing.T, i int) arq.Frame {
	t.Helper()
	f, rest, err := arq.Decode(h.down[i])
	if err != nil || len(rest) != 0 {
		t.Fatalf("down[%d] = %v: %v, %d trailing bytes", i, h.down[i], err, len(rest))
	}
	return f
}

func encode(f arq.Frame) []byte { return f.Append(nil) }

func TestARQAcksDedupsAndRetransmits(t *testing.T) {
	h, a, evSend, evRecv, evTick := newARQHarness(t, 10*time.Millisecond, 8)

	h.external(t, evSend, []byte("payload"))
	if len(h.down) != 1 {
		t.Fatalf("down = %d", len(h.down))
	}
	sent := h.downFrame(t, 0)
	if sent.Kind != arq.KindData || sent.Seq != 1 || string(sent.Inner) != "payload" {
		t.Fatalf("sent %+v, want data frame 1", sent)
	}

	// The peer's data frame is released upward, once; its ack is owed,
	// not sent.
	peer := encode(arq.Frame{Kind: arq.KindData, Epoch: 7, Seq: 1, Inner: []byte("hello")})
	h.external(t, evRecv, peer)
	if len(h.up) != 1 || string(h.up[0]) != "hello" {
		t.Fatalf("up = %q", h.up)
	}
	if len(h.down) != 1 {
		t.Fatalf("down = %d after one fresh frame, want the ack owed", len(h.down))
	}
	// A duplicate means the peer is retransmitting: it is acked at once
	// and not re-delivered.
	h.external(t, evRecv, peer)
	if len(h.up) != 1 {
		t.Fatal("duplicate delivered")
	}
	if len(h.down) != 2 {
		t.Fatalf("down = %d, want the duplicate acked", len(h.down))
	}
	if ack := h.downFrame(t, 1); ack.Kind != arq.KindAck || ack.Epoch != 7 || ack.Seq != 1 {
		t.Fatalf("duplicate answered by %+v, want a cumulative ack of seq 1 of epoch 7", ack)
	}
	// The unacknowledged frame is resent after the RTO, carrying the ack.
	time.Sleep(15 * time.Millisecond)
	h.external(t, evTick, nil)
	if len(h.down) != 3 {
		t.Fatalf("retransmission missing: down = %d", len(h.down))
	}
	if re := h.downFrame(t, 2); re.Kind != arq.KindData || re.Seq != 1 || re.AckEpoch != 7 || re.Ack != 1 {
		t.Fatalf("retransmitted %+v, want data frame 1 acking seq 1 of epoch 7", re)
	}
	// The peer's ack clears it: no further retransmission, and nothing is
	// owed.
	h.external(t, evRecv, encode(arq.Frame{Kind: arq.KindAck, Epoch: sent.Epoch, Seq: 1}))
	time.Sleep(15 * time.Millisecond)
	h.external(t, evTick, nil)
	if len(h.down) != 3 {
		t.Fatal("acked frame still retransmitting")
	}
	if n := a.retransmits.Load(); n != 1 {
		t.Fatalf("retransmits = %d", n)
	}
}

func TestARQWindowQueues(t *testing.T) {
	h, _, evSend, evRecv, _ := newARQHarness(t, time.Hour, 2)
	for i := 0; i < 5; i++ {
		h.external(t, evSend, []byte{byte(i)})
	}
	if len(h.down) != 2 {
		t.Fatalf("transmitted %d, window is 2", len(h.down))
	}
	epoch := h.downFrame(t, 0).Epoch
	// Ack the first: one queued frame flows.
	h.external(t, evRecv, encode(arq.Frame{Kind: arq.KindAck, Epoch: epoch, Seq: 1}))
	if len(h.down) != 3 || h.downFrame(t, 2).Seq != 3 {
		t.Fatalf("after ack: down = %d", len(h.down))
	}
	// One cumulative ack opens two slots.
	h.external(t, evRecv, encode(arq.Frame{Kind: arq.KindAck, Epoch: epoch, Seq: 3}))
	if len(h.down) != 5 || h.downFrame(t, 4).Seq != 5 || h.downFrame(t, 4).Inner[0] != 4 {
		t.Fatalf("after acking up to 3: down = %d, want all 5 sent in order", len(h.down))
	}
}

func TestChecksumRoundTripAndReject(t *testing.T) {
	var sum *Checksum
	h, evSend, evRecv := newLayerHarness(t, func(down, up *core.EventType) (*core.Microprotocol, *core.Handler, *core.Handler) {
		sum = newChecksum(down, up)
		return sum.mp, sum.hSend, sum.hRecv
	})
	h.external(t, evSend, []byte("guarded"))
	if len(h.down) != 1 {
		t.Fatal("nothing sent")
	}
	frame := append([]byte(nil), h.down[0]...)
	h.external(t, evRecv, frame)
	if len(h.up) != 1 || string(h.up[0]) != "guarded" {
		t.Fatalf("up = %q", h.up)
	}
	// Flip a byte: the frame must be dropped and counted.
	bad := append([]byte(nil), h.down[0]...)
	bad[len(bad)-1] ^= 0xFF
	h.external(t, evRecv, bad)
	if len(h.up) != 1 {
		t.Fatal("corrupted frame delivered")
	}
	if sum.BadFrames() != 1 {
		t.Fatalf("bad frames = %d", sum.BadFrames())
	}
	// Truncated garbage is also just dropped.
	h.external(t, evRecv, []byte{1, 2})
	if sum.BadFrames() != 2 {
		t.Fatalf("bad frames = %d", sum.BadFrames())
	}
}
