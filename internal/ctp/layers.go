package ctp

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dedupe"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ARQ frame kinds.
const (
	arqData uint8 = 1
	arqAck  uint8 = 2
)

// Segment splits application messages into MSS-sized fragments on the way
// down and reassembles them on the way up. Frame: {msgID, idx, cnt, frag}.
type Segment struct {
	mp   *core.Microprotocol
	mss  int
	down *core.EventType // next send layer
	up   *core.EventType // delivery to the application

	nextMsgID uint64
	partial   map[uint64]*partialMsg

	hSend, hRecv *core.Handler
}

type partialMsg struct {
	cnt   int
	got   int
	parts [][]byte
}

func newSegment(mss int, down, up *core.EventType) *Segment {
	s := &Segment{
		mp:      core.NewMicroprotocol("segment"),
		mss:     mss,
		down:    down,
		up:      up,
		partial: make(map[uint64]*partialMsg),
	}
	s.hSend = s.mp.AddHandler("send", s.send).Emits(s.down)
	s.hRecv = s.mp.AddHandler("recv", s.recv).Emits(s.up)
	return s
}

func (s *Segment) send(ctx *core.Context, msg core.Message) error {
	data := msg.([]byte)
	s.nextMsgID++
	id := s.nextMsgID
	cnt := (len(data) + s.mss - 1) / s.mss
	if cnt == 0 {
		cnt = 1
	}
	for i := 0; i < cnt; i++ {
		lo := i * s.mss
		hi := lo + s.mss
		if hi > len(data) {
			hi = len(data)
		}
		w := wire.NewWriter(16 + hi - lo)
		w.UVarint(id)
		w.U16(uint16(i))
		w.U16(uint16(cnt))
		w.BytesPrefixed(data[lo:hi])
		if err := ctx.Trigger(s.down, append([]byte(nil), w.Bytes()...)); err != nil {
			return err
		}
	}
	return nil
}

func (s *Segment) recv(ctx *core.Context, msg core.Message) error {
	r := wire.NewReader(msg.([]byte))
	id := r.UVarint()
	idx := int(r.U16())
	cnt := int(r.U16())
	frag := r.BytesPrefixed()
	if err := r.Err(); err != nil {
		return err
	}
	if cnt <= 0 || idx >= cnt {
		return nil // malformed: drop
	}
	p := s.partial[id]
	if p == nil {
		p = &partialMsg{cnt: cnt, parts: make([][]byte, cnt)}
		s.partial[id] = p
	}
	if p.cnt != cnt || p.parts[idx] != nil {
		if p.parts[idx] != nil {
			return nil // duplicate fragment
		}
		return nil // inconsistent: drop
	}
	p.parts[idx] = append([]byte(nil), frag...)
	p.got++
	if p.got < p.cnt {
		return nil
	}
	delete(s.partial, id)
	var out []byte
	for _, part := range p.parts {
		out = append(out, part...)
	}
	return ctx.Trigger(s.up, out)
}

// Order stamps frames with a per-connection sequence number and releases
// them upward in order. It assumes a reliable layer below it (the
// Endpoint enforces Ordered ⇒ Reliable); a gap therefore always fills
// eventually. Frame: {oseq, inner}.
type Order struct {
	mp   *core.Microprotocol
	down *core.EventType
	up   *core.EventType

	nextOut uint64
	nextIn  uint64
	buffer  map[uint64][]byte

	hSend, hRecv *core.Handler
}

func newOrder(down, up *core.EventType) *Order {
	o := &Order{
		mp:     core.NewMicroprotocol("order"),
		down:   down,
		up:     up,
		nextIn: 1,
		buffer: make(map[uint64][]byte),
	}
	o.hSend = o.mp.AddHandler("send", o.send).Emits(o.down)
	o.hRecv = o.mp.AddHandler("recv", o.recv).Emits(o.up)
	return o
}

func (o *Order) send(ctx *core.Context, msg core.Message) error {
	data := msg.([]byte)
	o.nextOut++
	w := wire.NewWriter(9 + len(data))
	w.U64(o.nextOut)
	w.BytesPrefixed(data)
	return ctx.Trigger(o.down, append([]byte(nil), w.Bytes()...))
}

func (o *Order) recv(ctx *core.Context, msg core.Message) error {
	r := wire.NewReader(msg.([]byte))
	oseq := r.U64()
	inner := r.BytesPrefixed()
	if err := r.Err(); err != nil {
		return err
	}
	if oseq < o.nextIn {
		return nil // duplicate of something already released
	}
	if _, dup := o.buffer[oseq]; dup {
		return nil
	}
	o.buffer[oseq] = append([]byte(nil), inner...)
	for {
		data, ok := o.buffer[o.nextIn]
		if !ok {
			return nil
		}
		delete(o.buffer, o.nextIn)
		o.nextIn++
		if err := ctx.Trigger(o.up, data); err != nil {
			return err
		}
	}
}

// ConnFailedError reports that a data frame exhausted its retransmission
// budget: the connection is considered failed for that frame (the peer is
// unreachable or the link is persistently lossy beyond repair).
type ConnFailedError struct {
	Seq     uint64 // ARQ sequence number of the abandoned frame
	Retries int    // retransmissions attempted before giving up
}

func (e *ConnFailedError) Error() string {
	return fmt.Sprintf("ctp: connection failed: frame %d unacknowledged after %d retransmissions", e.Seq, e.Retries)
}

// ARQ provides reliability: every data frame carries a sequence number
// and is buffered until acknowledged; a timer retransmits with per-frame
// exponential backoff and jitter; a sliding window bounds the
// unacknowledged frames (excess sends queue); receivers ack everything
// and deduplicate. With a retry cap, frames that exhaust it are abandoned
// and surface a ConnFailedError. Frames: {kind, aseq, inner?}.
type ARQ struct {
	mp         *core.Microprotocol
	rto        time.Duration
	window     int
	maxRetries int
	down       *core.EventType
	up         *core.EventType

	nextSeq uint64
	pending map[uint64]*arqPending
	queued  [][]byte
	seen    dedupe.Seq
	rng     *rand.Rand

	retransmits atomic.Uint64

	hSend, hRecv, hRetransmit *core.Handler
}

type arqPending struct {
	frame  []byte
	sentAt time.Time
	rto    time.Duration // current backoff interval for this frame
	tries  int           // retransmissions so far
}

// backoffCap bounds the exponential backoff at this multiple of the base
// RTO.
const backoffCap = 8

func newARQ(rto time.Duration, window, maxRetries int, seed int64, down, up *core.EventType) *ARQ {
	a := &ARQ{
		mp:         core.NewMicroprotocol("arq"),
		rto:        rto,
		window:     window,
		maxRetries: maxRetries,
		down:       down,
		up:         up,
		pending:    make(map[uint64]*arqPending),
		rng:        rand.New(rand.NewSource(seed)),
	}
	a.hSend = a.mp.AddHandler("send", a.send).Emits(a.down)
	a.hRecv = a.mp.AddHandler("recv", a.recv).Emits(a.down, a.up) // acks go down
	a.hRetransmit = a.mp.AddHandler("retransmit", a.retransmit).Emits(a.down)
	return a
}

func (a *ARQ) send(ctx *core.Context, msg core.Message) error {
	data := msg.([]byte)
	if len(a.pending) >= a.window {
		a.queued = append(a.queued, data)
		return nil
	}
	return a.transmit(ctx, data)
}

func (a *ARQ) transmit(ctx *core.Context, data []byte) error {
	a.nextSeq++
	w := wire.NewWriter(16 + len(data))
	w.U8(arqData)
	w.U64(a.nextSeq)
	w.BytesPrefixed(data)
	frame := append([]byte(nil), w.Bytes()...)
	a.pending[a.nextSeq] = &arqPending{frame: frame, sentAt: time.Now(), rto: a.rto}
	return ctx.Trigger(a.down, frame)
}

func (a *ARQ) recv(ctx *core.Context, msg core.Message) error {
	r := wire.NewReader(msg.([]byte))
	switch kind := r.U8(); kind {
	case arqData:
		aseq := r.U64()
		inner := r.BytesPrefixed()
		if err := r.Err(); err != nil {
			return err
		}
		// Ack unconditionally; the ack rides the same downward path
		// (through Checksum, if enabled) as data.
		w := wire.NewWriter(9)
		w.U8(arqAck)
		w.U64(aseq)
		if err := ctx.Trigger(a.down, append([]byte(nil), w.Bytes()...)); err != nil {
			return err
		}
		if !a.seen.Mark(aseq) {
			return nil
		}
		return ctx.Trigger(a.up, append([]byte(nil), inner...))
	case arqAck:
		aseq := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		delete(a.pending, aseq)
		for len(a.queued) > 0 && len(a.pending) < a.window {
			data := a.queued[0]
			a.queued = a.queued[1:]
			if err := a.transmit(ctx, data); err != nil {
				return err
			}
		}
		return nil
	default:
		return nil
	}
}

func (a *ARQ) retransmit(ctx *core.Context, _ core.Message) error {
	now := time.Now()
	var failed []error
	for seq, p := range a.pending {
		if now.Sub(p.sentAt) < p.rto {
			continue
		}
		if a.maxRetries > 0 && p.tries >= a.maxRetries {
			// Budget exhausted: abandon the frame and surface the failure,
			// but keep scanning — other frames may still be repairable.
			delete(a.pending, seq)
			failed = append(failed, &ConnFailedError{Seq: seq, Retries: p.tries})
			continue
		}
		p.tries++
		p.sentAt = now
		// Exponential backoff with ±25% jitter, capped at backoffCap×base:
		// doubling spaces retries out under persistent outages, the jitter
		// decorrelates the two directions of a connection.
		next := p.rto * 2
		if max := a.rto * backoffCap; next > max {
			next = max
		}
		p.rto = next + time.Duration((a.rng.Float64()-0.5)*0.5*float64(next))
		a.retransmits.Add(1)
		if err := ctx.Trigger(a.down, p.frame); err != nil {
			return errors.Join(append(failed, err)...)
		}
	}
	return errors.Join(failed...)
}

// Retransmits reports the total retransmissions so far.
func (a *ARQ) Retransmits() uint64 { return a.retransmits.Load() }

// Checksum guards the whole frame below it with FNV-32a; corrupted
// datagrams are silently dropped (ARQ repairs the loss, if present).
// Frame: {sum, inner}.
type Checksum struct {
	mp   *core.Microprotocol
	down *core.EventType
	up   *core.EventType

	bad atomic.Uint64

	hSend, hRecv *core.Handler
}

func newChecksum(down, up *core.EventType) *Checksum {
	c := &Checksum{
		mp:   core.NewMicroprotocol("checksum"),
		down: down,
		up:   up,
	}
	c.hSend = c.mp.AddHandler("send", c.send).Emits(c.down)
	c.hRecv = c.mp.AddHandler("recv", c.recv).Emits(c.up)
	return c
}

func sum32(data []byte) uint32 {
	h := fnv.New32a()
	h.Write(data)
	return h.Sum32()
}

func (c *Checksum) send(ctx *core.Context, msg core.Message) error {
	data := msg.([]byte)
	w := wire.NewWriter(5 + len(data))
	w.U32(sum32(data))
	w.BytesPrefixed(data)
	return ctx.Trigger(c.down, append([]byte(nil), w.Bytes()...))
}

func (c *Checksum) recv(ctx *core.Context, msg core.Message) error {
	r := wire.NewReader(msg.([]byte))
	want := r.U32()
	inner := r.BytesPrefixed()
	if r.Err() != nil || sum32(inner) != want {
		c.bad.Add(1)
		return nil // drop silently; retransmission repairs it
	}
	return ctx.Trigger(c.up, append([]byte(nil), inner...))
}

// BadFrames reports datagrams dropped for checksum mismatch.
func (c *Checksum) BadFrames() uint64 { return c.bad.Load() }

// WireOut is the egress microprotocol: frames to the peer node.
type WireOut struct {
	mp   *core.Microprotocol
	node transport.Endpoint
	peer transport.NodeID

	hSend *core.Handler
}

func newWireOut(node transport.Endpoint, peer transport.NodeID) *WireOut {
	w := &WireOut{
		mp:   core.NewMicroprotocol("wire"),
		node: node,
		peer: peer,
	}
	w.hSend = w.mp.AddHandler("send", func(_ *core.Context, msg core.Message) error {
		w.node.Send(w.peer, msg.([]byte))
		return nil
	}).Emits()
	return w
}
