package gc

import (
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Causal is the causal-order broadcast microprotocol (vector clocks, in
// the CBCAST tradition): a message is delivered only after every message
// that causally precedes it. It rides RelCast for reliability.
//
// Each site keeps a vector clock counting messages *delivered* per
// origin; a broadcast carries the sender's clock with its own entry
// pre-incremented. A received message m from s is deliverable when
//
//	m.vc[s]  == vc[s]+1            (next from its sender), and
//	m.vc[k]  <= vc[k]  for k ≠ s   (its causal past is delivered here).
//
// Vector entries are created on demand, so the protocol tolerates members
// joining mid-stream (a joiner misses pre-join history, as with the other
// broadcast kinds).
type Causal struct {
	mp   *core.Microprotocol
	self transport.NodeID
	ev   *events

	vc      map[transport.NodeID]uint64
	sent    uint64 // own broadcasts issued; may run ahead of vc[self]
	pending []causalMsg

	deliver func(from transport.NodeID, data []byte)

	hBcast, hRecv *core.Handler
}

type causalMsg struct {
	origin transport.NodeID
	vc     map[transport.NodeID]uint64
	data   []byte
}

func newCausal(self transport.NodeID, ev *events, deliver func(transport.NodeID, []byte)) *Causal {
	c := &Causal{
		mp:      core.NewMicroprotocol("causal"),
		self:    self,
		ev:      ev,
		vc:      make(map[transport.NodeID]uint64),
		deliver: deliver,
	}
	c.hBcast = c.mp.AddHandler("bcast", c.bcast).Emits(ev.Bcast)
	c.hRecv = c.mp.AddHandler("recv", c.recv).Emits()
	return c
}

func encodeVC(w *wire.Writer, vc map[transport.NodeID]uint64) {
	w.UVarint(uint64(len(vc)))
	for site, n := range vc {
		w.U16(uint16(site))
		w.U64(n)
	}
}

func decodeVC(r *wire.Reader) map[transport.NodeID]uint64 {
	n := r.UVarint()
	if n > 1<<16 {
		return nil
	}
	vc := make(map[transport.NodeID]uint64, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		site := transport.NodeID(r.U16())
		vc[site] = r.U64()
	}
	return vc
}

// bcast stamps the payload with the sender's vector clock, with its own
// entry taken from a separate send counter: the vc tracks *deliveries*,
// and a sender may issue several broadcasts before its own copies come
// back, each of which must still get a distinct, increasing stamp. The
// local delivery happens when the self-delivered copy arrives, like every
// other broadcast kind.
func (c *Causal) bcast(ctx *core.Context, msg core.Message) error {
	data := msg.([]byte)
	stamp := make(map[transport.NodeID]uint64, len(c.vc)+1)
	for k, v := range c.vc {
		stamp[k] = v
	}
	c.sent++
	stamp[c.self] = c.sent
	w := wire.NewWriter(16 + 10*len(stamp) + len(data))
	encodeVC(w, stamp)
	w.BytesPrefixed(data)
	return ctx.Trigger(c.ev.Bcast, &CastMsg{Kind: castCausal, Data: append([]byte(nil), w.Bytes()...)})
}

// recv buffers causal messages until deliverable, then drains everything
// the delivery unblocked.
func (c *Causal) recv(_ *core.Context, msg core.Message) error {
	m := msg.(CastMsg)
	r := wire.NewReader(m.Data)
	vc := decodeVC(r)
	data := r.BytesPrefixed()
	if err := r.Err(); err != nil {
		return err
	}
	if vc[m.ID.Origin] <= c.vc[m.ID.Origin] {
		return nil // duplicate (already delivered)
	}
	c.pending = append(c.pending, causalMsg{
		origin: m.ID.Origin,
		vc:     vc,
		data:   append([]byte(nil), data...),
	})
	c.drain()
	return nil
}

func (c *Causal) deliverable(m causalMsg) bool {
	if m.vc[m.origin] != c.vc[m.origin]+1 {
		return false
	}
	for site, n := range m.vc {
		if site != m.origin && n > c.vc[site] {
			return false
		}
	}
	return true
}

func (c *Causal) drain() {
	for progress := true; progress; {
		progress = false
		for i, m := range c.pending {
			if !c.deliverable(m) {
				continue
			}
			c.vc[m.origin] = m.vc[m.origin]
			if c.deliver != nil {
				c.deliver(m.origin, m.data)
			}
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			progress = true
			break
		}
	}
}

// Pending reports buffered undeliverable messages (tests).
func (c *Causal) Pending() int { return len(c.pending) }
