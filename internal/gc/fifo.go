package gc

import (
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Fifo is the FIFO-order broadcast microprotocol: messages from one
// origin are delivered in the order that origin sent them; messages from
// different origins are unordered relative to each other. It rides
// RelCast for reliability and adds its own per-origin sequence numbers
// (RelCast's message IDs cannot be reused: the ID counter is shared by
// every broadcast kind, so one kind's view of it has gaps).
//
// Together with RelCast (unordered), Causal and ABcast (total), this
// completes the classic ordering spectrum of group-communication
// toolkits — the shape of the middleware the paper's §3 example is
// drawn from.
type Fifo struct {
	mp   *core.Microprotocol
	self transport.NodeID
	ev   *events

	nextOut uint64
	nextIn  map[transport.NodeID]uint64
	buffer  map[transport.NodeID]map[uint64][]byte

	deliver func(from transport.NodeID, data []byte)

	hBcast, hRecv *core.Handler
}

func newFifo(self transport.NodeID, ev *events, deliver func(transport.NodeID, []byte)) *Fifo {
	f := &Fifo{
		mp:      core.NewMicroprotocol("fifo"),
		self:    self,
		ev:      ev,
		nextIn:  make(map[transport.NodeID]uint64),
		buffer:  make(map[transport.NodeID]map[uint64][]byte),
		deliver: deliver,
	}
	f.hBcast = f.mp.AddHandler("bcast", f.bcast).Emits(ev.Bcast)
	f.hRecv = f.mp.AddHandler("recv", f.recv).Emits()
	return f
}

// bcast stamps the payload with the next per-origin FIFO sequence number
// and hands it to RelCast.
func (f *Fifo) bcast(ctx *core.Context, msg core.Message) error {
	data := msg.([]byte)
	f.nextOut++
	w := wire.NewWriter(12 + len(data))
	w.U64(f.nextOut)
	w.BytesPrefixed(data)
	return ctx.Trigger(f.ev.Bcast, &CastMsg{Kind: castFifo, Data: append([]byte(nil), w.Bytes()...)})
}

// recv buffers FIFO messages and releases each origin's stream in
// sequence.
func (f *Fifo) recv(_ *core.Context, msg core.Message) error {
	m := msg.(CastMsg)
	if m.Kind != castFifo {
		return nil
	}
	r := wire.NewReader(m.Data)
	fseq := r.U64()
	data := r.BytesPrefixed()
	if err := r.Err(); err != nil {
		return err
	}
	origin := m.ID.Origin
	next := f.nextIn[origin] + 1
	if fseq < next {
		return nil // duplicate
	}
	buf := f.buffer[origin]
	if buf == nil {
		buf = make(map[uint64][]byte)
		f.buffer[origin] = buf
	}
	if _, dup := buf[fseq]; dup {
		return nil
	}
	buf[fseq] = append([]byte(nil), data...)
	for {
		data, ok := buf[next]
		if !ok {
			f.nextIn[origin] = next - 1
			return nil
		}
		delete(buf, next)
		if f.deliver != nil {
			f.deliver(origin, data)
		}
		next++
	}
}
