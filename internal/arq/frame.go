package arq

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame kinds: the first byte of every frame. Kind 3 is left to the
// caller (gc's heartbeat).
const (
	KindData uint8 = 1 // epoch + seq + piggybacked ack + sender base + length-prefixed payload
	KindAck  uint8 = 2 // cumulative ack: echoed epoch + seq, acknowledging every seq up to it
	KindSack uint8 = 4 // selective ack: echoed epoch + the one seq it acknowledges
)

// ackLen is the encoded size of an ack frame: kind, epoch, seq.
// dataHdrLen is a data frame's fixed header: those, then the piggybacked
// ack's echoed epoch and seq, then the sender base.
const (
	ackLen     = 1 + 4 + 8
	dataHdrLen = ackLen + 4 + 8 + 8
)

// Frame is one ARQ frame, decoded or to be encoded. A decoded frame's
// Inner aliases the bytes it was decoded from.
type Frame struct {
	Kind uint8
	// KindData: the sender's incarnation, fresh after a crash-restart;
	// KindAck, KindSack: the echoed one, so that a restarted sender
	// ignores acks addressed to its previous incarnation.
	Epoch uint32
	Seq   uint64 // KindData: the frame's; KindAck: the cumulative ack; KindSack: the one acknowledged
	// KindData only: the cumulative ack for the reverse direction (the
	// echoed epoch of the frame's receiver, and every seq up to Ack from
	// it arrived), and the sender base (every seq up to Base the sender
	// will never send again: acknowledged or abandoned).
	AckEpoch  uint32
	Ack, Base uint64
	Inner     []byte
}

// ErrBadFrame is the error Decode wraps for an unknown kind or a
// truncated frame.
var ErrBadFrame = errors.New("arq: malformed frame")

// Size is the frame's encoded length.
func (f *Frame) Size() int {
	if f.Kind != KindData {
		return ackLen
	}
	var v [binary.MaxVarintLen64]byte
	return dataHdrLen + binary.PutUvarint(v[:], uint64(len(f.Inner))) + len(f.Inner)
}

// Append encodes f at the end of dst.
func (f *Frame) Append(dst []byte) []byte {
	dst = append(dst, f.Kind)
	dst = binary.LittleEndian.AppendUint32(dst, f.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	if f.Kind != KindData {
		return dst
	}
	dst = binary.LittleEndian.AppendUint32(dst, f.AckEpoch)
	dst = binary.LittleEndian.AppendUint64(dst, f.Ack)
	dst = binary.LittleEndian.AppendUint64(dst, f.Base)
	dst = binary.AppendUvarint(dst, uint64(len(f.Inner)))
	return append(dst, f.Inner...)
}

// Decode splits the first frame off non-empty p. An unknown kind or a
// truncated frame is an error; frames are self-delimiting, so a caller
// walking several frames has already handled the ones before it.
func Decode(p []byte) (f Frame, rest []byte, err error) {
	hdr := ackLen
	switch f.Kind = p[0]; f.Kind {
	case KindData:
		hdr = dataHdrLen
	case KindAck, KindSack:
	default:
		return f, nil, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, f.Kind)
	}
	if len(p) < hdr {
		return f, nil, fmt.Errorf("%w: kind %d header truncated at %d bytes", ErrBadFrame, f.Kind, len(p))
	}
	f.Epoch = binary.LittleEndian.Uint32(p[1:])
	f.Seq = binary.LittleEndian.Uint64(p[5:])
	if f.Kind != KindData {
		return f, p[ackLen:], nil
	}
	f.AckEpoch = binary.LittleEndian.Uint32(p[13:])
	f.Ack = binary.LittleEndian.Uint64(p[17:])
	f.Base = binary.LittleEndian.Uint64(p[25:])
	rest = p[dataHdrLen:]
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(len(rest)-k) {
		return f, nil, fmt.Errorf("%w: data seq %d payload truncated", ErrBadFrame, f.Seq)
	}
	f.Inner = rest[k : k+int(n)]
	return f, rest[k+int(n):], nil
}
