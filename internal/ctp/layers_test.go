package ctp

import (
	"bytes"
	"errors"
	"testing"
	"time"

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

func TestARQAcksDedupsAndRetransmits(t *testing.T) {
	var arq *ARQ
	h, evSend, evRecv := newLayerHarness(t, func(down, up *core.EventType) (*core.Microprotocol, *core.Handler, *core.Handler) {
		arq = newARQ(10*time.Millisecond, 8, 0, 1, down, up)
		return arq.mp, arq.hSend, arq.hRecv
	})
	evTick := core.NewEventType("tick")
	h.s.Bind(evTick, arq.hRetransmit)

	h.external(t, evSend, []byte("payload"))
	if len(h.down) != 1 {
		t.Fatalf("down = %d", len(h.down))
	}
	dataFrame := h.down[0]

	// Receiving the data frame acks it and releases it upward, once.
	h.external(t, evRecv, dataFrame)
	if len(h.up) != 1 || string(h.up[0]) != "payload" {
		t.Fatalf("up = %q", h.up)
	}
	if len(h.down) != 2 { // the ack went down
		t.Fatalf("down = %d, want data+ack", len(h.down))
	}
	ackFrame := h.down[1]
	if ackFrame[0] != arqAck {
		t.Fatal("second down frame is not an ack")
	}
	// A duplicate data frame is re-acked but not re-delivered.
	h.external(t, evRecv, dataFrame)
	if len(h.up) != 1 {
		t.Fatal("duplicate delivered")
	}
	if len(h.down) != 3 {
		t.Fatal("duplicate not re-acked")
	}
	// Unacked frames retransmit after the RTO; acked ones don't.
	time.Sleep(15 * time.Millisecond)
	h.external(t, evTick, nil)
	if len(h.down) != 4 || !bytes.Equal(h.down[3], dataFrame) {
		t.Fatalf("retransmission missing: down = %d", len(h.down))
	}
	h.external(t, evRecv, ackFrame) // our own ack comes back: sender side clears
	time.Sleep(15 * time.Millisecond)
	h.external(t, evTick, nil)
	if len(h.down) != 4 {
		t.Fatal("acked frame still retransmitting")
	}
	if arq.Retransmits() != 1 {
		t.Fatalf("retransmits = %d", arq.Retransmits())
	}
}

func TestARQBackoffSpacesRetransmissions(t *testing.T) {
	var arq *ARQ
	h, evSend, _ := newLayerHarness(t, func(down, up *core.EventType) (*core.Microprotocol, *core.Handler, *core.Handler) {
		arq = newARQ(30*time.Millisecond, 8, 0, 1, down, up)
		return arq.mp, arq.hSend, arq.hRecv
	})
	evTick := core.NewEventType("tick")
	h.s.Bind(evTick, arq.hRetransmit)

	h.external(t, evSend, []byte("x"))
	time.Sleep(35 * time.Millisecond)
	h.external(t, evTick, nil)
	if arq.Retransmits() != 1 {
		t.Fatalf("retransmits = %d, want 1", arq.Retransmits())
	}
	// The frame's interval has backed off to ≥ 2×30ms×0.75 = 45ms: a tick
	// only ~30ms after the first retransmission must not fire again.
	time.Sleep(30 * time.Millisecond)
	h.external(t, evTick, nil)
	if got := arq.Retransmits(); got != 1 {
		t.Fatalf("retransmitted again before the backed-off interval: %d", got)
	}
}

func TestARQMaxRetriesSurfacesConnFailure(t *testing.T) {
	var arq *ARQ
	h, evSend, _ := newLayerHarness(t, func(down, up *core.EventType) (*core.Microprotocol, *core.Handler, *core.Handler) {
		arq = newARQ(time.Millisecond, 8, 2, 1, down, up)
		return arq.mp, arq.hSend, arq.hRecv
	})
	evTick := core.NewEventType("tick")
	h.s.Bind(evTick, arq.hRetransmit)

	h.external(t, evSend, []byte("doomed"))
	var tickErr error
	for i := 0; i < 10 && tickErr == nil; i++ {
		time.Sleep(15 * time.Millisecond) // past the 8×1ms backoff cap
		tickErr = h.s.External(h.spec, evTick, nil)
	}
	var cf *ConnFailedError
	if !errors.As(tickErr, &cf) {
		t.Fatalf("tick error = %v, want *ConnFailedError", tickErr)
	}
	if cf.Seq != 1 || cf.Retries != 2 {
		t.Fatalf("failure = %+v", cf)
	}
	// The frame is abandoned: further ticks neither retransmit nor re-fail
	// (h.external fails the test on a tick error).
	before := arq.Retransmits()
	time.Sleep(15 * time.Millisecond)
	h.external(t, evTick, nil)
	if arq.Retransmits() != before {
		t.Fatal("abandoned frame still active")
	}
	if len(h.down) != 3 { // original + 2 retransmissions
		t.Fatalf("down = %d frames, want 3", len(h.down))
	}
}

func TestARQWindowQueues(t *testing.T) {
	var arq *ARQ
	h, evSend, evRecv := newLayerHarness(t, func(down, up *core.EventType) (*core.Microprotocol, *core.Handler, *core.Handler) {
		arq = newARQ(time.Hour, 2, 0, 1, down, up)
		return arq.mp, arq.hSend, arq.hRecv
	})
	for i := 0; i < 5; i++ {
		h.external(t, evSend, []byte{byte(i)})
	}
	if len(h.down) != 2 {
		t.Fatalf("transmitted %d, window is 2", len(h.down))
	}
	// Ack the first: one queued frame flows.
	w := wire.NewWriter(9)
	w.U8(arqAck)
	w.U64(1)
	h.external(t, evRecv, w.Bytes())
	if len(h.down) != 3 {
		t.Fatalf("after ack: down = %d", len(h.down))
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
