package ctp

import (
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/arq"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
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

// ARQ provides reliability over one arq.Link to the peer, whose package
// states the rules: acks, retransmission and a sliding send window. Each
// frame it sends down is one arq frame in a datagram of its own.
type ARQ struct {
	mp   *core.Microprotocol
	rto  time.Duration
	down *core.EventType
	up   *core.EventType
	link *arq.Link

	retransmits atomic.Uint64

	hSend, hRecv, hRetransmit *core.Handler
}

func newARQ(rto time.Duration, window int, down, up *core.EventType) *ARQ {
	a := &ARQ{
		mp:   core.NewMicroprotocol("arq"),
		rto:  rto,
		down: down,
		up:   up,
		link: arq.NewLink(rand.Uint32(), window),
	}
	a.hSend = a.mp.AddHandler("send", a.send).Emits(a.down)
	a.hRecv = a.mp.AddHandler("recv", a.recv).Emits(a.down, a.up) // acks go down
	a.hRetransmit = a.mp.AddHandler("retransmit", a.retransmit).Emits(a.down)
	return a
}

func (a *ARQ) send(ctx *core.Context, msg core.Message) error {
	return a.link.Send(msg.([]byte), func(f arq.Frame) error { return a.emit(ctx, f) })
}

// emit sends f down, encoded.
func (a *ARQ) emit(ctx *core.Context, f arq.Frame) error {
	return ctx.Trigger(a.down, f.Append(make([]byte, 0, f.Size())))
}

func (a *ARQ) recv(ctx *core.Context, msg core.Message) error {
	f, _, err := arq.Decode(msg.([]byte))
	if err != nil {
		return err
	}
	emit := func(f arq.Frame) error { return a.emit(ctx, f) }
	if f.Kind != arq.KindData {
		return a.link.Acked(f.Kind, f.Epoch, f.Seq, emit)
	}
	if fresh, err := a.link.Receive(&f, emit); !fresh || err != nil {
		return err
	}
	return ctx.Trigger(a.up, append([]byte(nil), f.Inner...))
}

func (a *ARQ) retransmit(ctx *core.Context, _ core.Message) error {
	n, err := a.link.Tick(time.Now(), a.rto, func(f arq.Frame) error { return a.emit(ctx, f) })
	a.retransmits.Add(uint64(n))
	return err
}

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
