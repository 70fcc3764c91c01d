package gc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Frame kinds (first byte of every frame). A datagram is a sequence of
// self-delimiting frames: RelComm data and acks addressed to one peer
// share datagrams (NetOut coalesces them per computation); a heartbeat
// always travels alone.
const (
	dgData uint8 = 1 // RelComm data: epoch + seq + piggybacked ack + sender base + length-prefixed inner payload
	dgAck  uint8 = 2 // RelComm cumulative ack: echoed epoch + seq, acknowledging every seq up to it
	dgBeat uint8 = 3 // failure-detector heartbeat: the kind byte only
	dgSack uint8 = 4 // RelComm selective ack: echoed epoch + the one seq it acknowledges
)

// ackLen is the encoded size of an ack frame: kind, epoch, seq.
// dataHdrLen is a data frame's fixed header: those, then the piggybacked
// ack's echoed epoch and seq, then the sender base.
const (
	ackLen     = 1 + 4 + 8
	dataHdrLen = ackLen + 4 + 8 + 8
)

// maxDatagram is where NetOut splits one destination's frames into a
// further datagram. It stays below the smallest payload limit among the
// transport backends (udpnet.MaxPayload, 63 KiB; the simulator has
// none), so coalescing never turns deliverable frames into an oversize
// drop.
const maxDatagram = 60 << 10

// Inner payload layers carried by RelComm: the first byte of an inner
// payload, by which RelComm hands it to one layer (events.up).
const (
	layerRelCast   uint8 = 1
	layerConsensus uint8 = 2
	layerSync      uint8 = 3 // join-time state transfer: next ABcast instance
)

// Cast content kinds: what a delivered broadcast means, and so the layer
// RelCast and ABcast deliver it to (events.deliverOut, events.adeliver).
// Kinds 4 and 5 are retired: no layer owns them, so a cast carrying one
// is deduplicated and relayed, and delivered nowhere.
const (
	castApp     uint8 = 1 // application payload, totally ordered by ABcast
	castViewChg uint8 = 2 // membership operation, totally ordered by ABcast
	castRApp    uint8 = 3 // application payload, plain reliable broadcast
)

// Consensus message types.
const (
	cPropose  uint8 = 1 // proposer → coordinator: please decide this value
	cPrepare  uint8 = 2 // coordinator → all: new round
	cPromise  uint8 = 3 // acceptor → coordinator: promise + last accepted
	cAccept   uint8 = 4 // coordinator → all: accept this value
	cAccepted uint8 = 5 // acceptor → coordinator: accepted
	cDecide   uint8 = 6 // coordinator → all: decision
	cSolicit  uint8 = 7 // suspecter → all: send me proposals and decisions
	cRefused  uint8 = 8 // acceptor → coordinator: promised a higher round
)

// MsgID uniquely identifies a broadcast message: origin site plus a
// per-origin sequence number. It doubles as the total-order tie-breaker
// inside decided batches.
type MsgID struct {
	Origin transport.NodeID
	Seq    uint64
}

// less orders IDs (origin, then seq).
func (a MsgID) less(b MsgID) bool {
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	return a.Seq < b.Seq
}

// String implements fmt.Stringer.
func (a MsgID) String() string { return fmt.Sprintf("%d:%d", a.Origin, a.Seq) }

// castMsg is the unit RelCast broadcasts and ABcast orders: an application
// payload or a membership operation.
type castMsg struct {
	ID   MsgID
	Kind uint8 // castApp, castViewChg or castRApp
	Data []byte
	Op   byte // '+' or '-' (castViewChg)
	Site transport.NodeID
}

func (m *castMsg) encode(w *wire.Writer) {
	w.U16(uint16(m.ID.Origin))
	w.U64(m.ID.Seq)
	w.U8(m.Kind)
	switch m.Kind {
	case castViewChg:
		w.U8(m.Op)
		w.U16(uint16(m.Site))
	default:
		w.BytesPrefixed(m.Data)
	}
}

func decodeCastMsg(r *wire.Reader) castMsg {
	var m castMsg
	m.ID.Origin = transport.NodeID(r.U16())
	m.ID.Seq = r.U64()
	m.Kind = r.U8()
	switch m.Kind {
	case castViewChg:
		m.Op = r.U8()
		m.Site = transport.NodeID(r.U16())
	default:
		m.Data = append([]byte(nil), r.BytesPrefixed()...)
	}
	return m
}

// consMsg is one consensus protocol message.
type consMsg struct {
	Type     uint8
	Inst     uint64
	Round    uint32
	AccRound uint32 // cPromise: round of the piggybacked accepted value
	Done     uint64 // sender's watermark: every instance below it is decided there
	// Voted (cAccept): the coordinator accepted the value in place, and
	// its vote plus the receiver's is its quorum.
	Voted    bool
	HasValue bool
	Value    []castMsg
}

func (m *consMsg) encode(w *wire.Writer) {
	w.U8(m.Type)
	w.U64(m.Inst)
	w.U32(m.Round)
	w.U32(m.AccRound)
	w.UVarint(m.Done)
	w.Bool(m.Voted)
	w.Bool(m.HasValue)
	if m.HasValue {
		w.UVarint(uint64(len(m.Value)))
		for i := range m.Value {
			m.Value[i].encode(w)
		}
	}
}

func decodeConsMsg(r *wire.Reader) consMsg {
	var m consMsg
	m.Type = r.U8()
	m.Inst = r.U64()
	m.Round = r.U32()
	m.AccRound = r.U32()
	m.Done = r.UVarint()
	m.Voted = r.Bool()
	m.HasValue = r.Bool()
	if m.HasValue {
		n := r.UVarint()
		if n > 1<<16 {
			return m // sticky reader error will surface via r.Err()
		}
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			m.Value = append(m.Value, decodeCastMsg(r))
		}
	}
	return m
}

// encodeCastFrame wraps a castMsg as a layerRelCast inner payload.
func encodeCastFrame(m *castMsg) []byte {
	w := wire.NewWriter(32 + len(m.Data))
	w.U8(layerRelCast)
	m.encode(w)
	return w.Bytes()
}

// encodeConsFrame wraps a consMsg as a layerConsensus inner payload.
func encodeConsFrame(m *consMsg) []byte {
	n := 32
	for i := range m.Value {
		n += 24 + len(m.Value[i].Data)
	}
	w := wire.NewWriter(n)
	w.U8(layerConsensus)
	m.encode(w)
	return w.Bytes()
}

// encodeSyncFrame wraps the join-time state transfer as a layerSync inner
// payload: the next ABcast instance (where the total order resumes) plus
// an opaque application snapshot reflecting every delivery before it —
// possibly empty when the site runs no snapshot hook. Decided values
// carry full message contents, so beyond the snapshot a fresh member only
// needs to know where the order resumes.
func encodeSyncFrame(nextInst uint64, snap []byte) []byte {
	w := wire.NewWriter(16 + len(snap))
	w.U8(layerSync)
	w.U64(nextInst)
	w.BytesPrefixed(snap)
	return w.Bytes()
}

// frame is one datagram frame, decoded or to be encoded. A decoded
// frame's inner aliases the datagram.
type frame struct {
	kind  uint8
	epoch uint32 // dgData: the sender's incarnation; dgAck, dgSack: the echoed one
	seq   uint64 // dgData: the frame's; dgAck: the cumulative ack; dgSack: the one acknowledged
	// dgData only: the cumulative ack for the reverse direction (the
	// echoed epoch of the frame's receiver, and every seq up to ack from
	// it arrived), and the sender base (every seq up to base the sender
	// will never send again: acknowledged or abandoned).
	ackEpoch  uint32
	ack, base uint64
	inner     []byte
}

var errBadFrame = errors.New("gc: malformed datagram frame")

// size is the frame's encoded length.
func (f *frame) size() int {
	switch f.kind {
	case dgBeat:
		return 1
	case dgData:
		var v [binary.MaxVarintLen64]byte
		return dataHdrLen + binary.PutUvarint(v[:], uint64(len(f.inner))) + len(f.inner)
	default:
		return ackLen
	}
}

// appendFrame encodes f at the end of dst. A data frame's epoch
// identifies the sender's RelComm incarnation: a crash-restarted process
// starts a fresh epoch, telling receivers to discard the dead
// incarnation's dedup state instead of silently swallowing the
// newcomer's restarted sequence space. An ack echoes the epoch of the
// data it acknowledges, so a sender ignores acks addressed to a previous
// incarnation of itself.
func appendFrame(dst []byte, f *frame) []byte {
	dst = append(dst, f.kind)
	if f.kind == dgBeat {
		return dst
	}
	dst = binary.LittleEndian.AppendUint32(dst, f.epoch)
	dst = binary.LittleEndian.AppendUint64(dst, f.seq)
	if f.kind != dgData {
		return dst
	}
	dst = binary.LittleEndian.AppendUint32(dst, f.ackEpoch)
	dst = binary.LittleEndian.AppendUint64(dst, f.ack)
	dst = binary.LittleEndian.AppendUint64(dst, f.base)
	dst = binary.AppendUvarint(dst, uint64(len(f.inner)))
	return append(dst, f.inner...)
}

// decodeFrame splits the first frame off a non-empty datagram — the one
// datagram decoder: RelComm's receive loop and the tests walk a datagram
// with it. An unknown kind or a truncated frame is an error; the frames
// before it were already returned, so a malformed tail costs only itself.
func decodeFrame(p []byte) (f frame, rest []byte, err error) {
	switch f.kind = p[0]; f.kind {
	case dgBeat:
		return f, p[1:], nil
	case dgData, dgAck, dgSack:
		hdr := ackLen
		if f.kind == dgData {
			hdr = dataHdrLen
		}
		if len(p) < hdr {
			return f, nil, fmt.Errorf("%w: kind %d header truncated at %d bytes", errBadFrame, f.kind, len(p))
		}
		f.epoch = binary.LittleEndian.Uint32(p[1:])
		f.seq = binary.LittleEndian.Uint64(p[5:])
		if f.kind != dgData {
			return f, p[ackLen:], nil
		}
		f.ackEpoch = binary.LittleEndian.Uint32(p[13:])
		f.ack = binary.LittleEndian.Uint64(p[17:])
		f.base = binary.LittleEndian.Uint64(p[25:])
		rest = p[dataHdrLen:]
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > uint64(len(rest)-k) {
			return f, nil, fmt.Errorf("%w: data seq %d payload truncated", errBadFrame, f.seq)
		}
		f.inner = rest[k : k+int(n)]
		return f, rest[k+int(n):], nil
	default:
		return f, nil, fmt.Errorf("%w: unknown kind %d", errBadFrame, f.kind)
	}
}

// Datagram classes, for the pump's choice of spec.
const (
	classMixed uint8 = iota // RelComm frames (or garbage): may cascade through the stack
	classBeat               // a heartbeat
)

// classify tells a heartbeat, which travels alone, from a datagram of
// RelComm frames.
func classify(p []byte) uint8 {
	if p[0] == dgBeat {
		return classBeat
	}
	return classMixed
}
