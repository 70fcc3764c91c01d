package gc

import (
	"fmt"

	"repro/internal/arq"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Frame kinds (first byte of every frame). A datagram is a sequence of
// self-delimiting frames: RelComm's ARQ frames (package arq) addressed to
// one peer share datagrams (NetOut coalesces them per computation); a
// heartbeat always travels alone.
const (
	dgData       = arq.KindData // RelComm data
	dgAck        = arq.KindAck  // RelComm cumulative ack
	dgBeat uint8 = 3            // failure-detector heartbeat: the kind byte only
	dgSack       = arq.KindSack // RelComm selective ack
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

// frame is one datagram frame: an ARQ frame, or, decoded, a heartbeat,
// which is its Kind alone. NetOut encodes only ARQ frames (Frame.Append);
// it sends a heartbeat as beatDatagram.
type frame = arq.Frame

// decodeFrame splits the first frame off a non-empty datagram — the one
// datagram decoder: RelComm's receive loop and the tests walk a datagram
// with it. An unknown kind or a truncated frame is an error; the frames
// before it were already returned, so a malformed tail costs only itself.
func decodeFrame(p []byte) (frame, []byte, error) {
	if p[0] == dgBeat {
		return frame{Kind: dgBeat}, p[1:], nil
	}
	return arq.Decode(p)
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
