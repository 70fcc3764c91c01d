// Package arq is the one automatic-repeat-request link both protocol
// stacks run on — the paper's RelComm job (§3): sequence numbers, acks,
// retransmission, and a send window. gc's RelComm keeps a Link per peer,
// ctp's ARQ layer one for its peer. A Link is plain state that imports
// no core: its caller runs it inside a computation and triggers the
// frames it hands to emit.
//
// Acks are cumulative and ride the data. A peer is owed an ack once a
// data frame from it arrives, and is paid by the first of:
//
//  1. any data frame to it, whose header carries the cumulative ack;
//  2. a duplicate from it, which means it is retransmitting: ack at once;
//  3. half of the send window owed, so its flow control never stalls;
//  4. the retransmission tick (every RTO/2) finding it still owed.
//
// A frame that arrives above a gap is owed a selective ack, which the
// tick pays while the gap is open, so the sender neither retransmits it
// with the gap nor counts it against the window, which bounds the frames
// awaiting any ack. An owed ack leaves at most RTO/2 after its frame
// arrived and a sender retransmits only frames older than the RTO, so
// deferral alone never causes a retransmission (DESIGN.md §12.1). There
// is no retry cap: a frame is resent every RTO until acknowledged or
// abandoned.
//
// Every data frame also carries the sender base: every seq up to it is
// acknowledged or abandoned. A receiver's dedup window starts there, so
// a fresh incarnation of the receiver, to which the sender's numbering
// continues, compacts its window from the first frame.
package arq

import (
	"time"

	"repro/internal/dedupe"
)

// sent is a data frame awaiting its ack, and retransmission.
type sent struct {
	inner  []byte
	sentAt time.Time
	sacked bool // selectively acknowledged: it arrived, above a gap
}

// Link is the ARQ state for one peer, both directions.
type Link struct {
	local  uint32 // this end's incarnation, which its data frames carry and its acks echo
	window int    // max unacknowledged frames; half of it owed is paid at once

	// Receive side: the peer's incarnation — a crash-restarted peer
	// announces a fresh random one and numbers from 1 again, so a new
	// epoch resets the dedup window — the dedup window, the cumulative
	// ack last sent (seen.Low() - acked is owed), and the frames that
	// arrived above a gap, owed a selective ack.
	epoch uint32
	seen  dedupe.Seq
	acked uint64
	sacks []uint64

	// Send side: the last seq assigned; the base, every seq up to which
	// is acknowledged or abandoned; the frames base+1..nextSeq in seq
	// order, sacked of them selectively acknowledged; and the sends
	// waiting for window space.
	nextSeq uint64
	base    uint64
	unacked []sent
	sacked  int
	queued  [][]byte
}

// NewLink returns the link to one peer of the incarnation epoch, with at
// most window frames unacknowledged.
func NewLink(epoch uint32, window int) *Link {
	return &Link{local: epoch, window: window}
}

// full reports whether window frames await any ack: a selectively
// acknowledged frame holds no slot, so a gap does not stall the window.
func (l *Link) full() bool { return len(l.unacked)-l.sacked >= l.window }

// Send transmits inner through emit if the window has room, and
// otherwise queues it until an ack opens the window.
func (l *Link) Send(inner []byte, emit func(Frame) error) error {
	if l.full() {
		l.queued = append(l.queued, inner)
		return nil
	}
	return emit(l.transmit(inner))
}

// transmit assigns inner the next seq and buffers it for retransmission.
func (l *Link) transmit(inner []byte) Frame {
	l.nextSeq++
	l.unacked = append(l.unacked, sent{inner: inner, sentAt: time.Now()})
	return l.data(l.nextSeq, inner)
}

// data builds the data frame for seq, carrying the base and the
// cumulative ack the peer is owed — which pays it (rule 1).
func (l *Link) data(seq uint64, inner []byte) Frame {
	l.acked = l.seen.Low()
	return Frame{Kind: KindData, Epoch: l.local, Seq: seq, AckEpoch: l.epoch, Ack: l.acked, Base: l.base, Inner: inner}
}

// Receive handles a data frame from the peer, reporting whether it is
// fresh: it applies the piggybacked ack (Acked), then the ack rules pay
// the peer through emit at once for a duplicate or half a window owed.
func (l *Link) Receive(f *Frame, emit func(Frame) error) (bool, error) {
	if err := l.Acked(KindAck, f.AckEpoch, f.Ack, emit); err != nil {
		return false, err
	}
	if l.epoch != f.Epoch { // the peer restarted: its numbering starts over
		l.epoch, l.seen, l.acked, l.sacks = f.Epoch, dedupe.Seq{}, 0, nil
	}
	// Nothing up to the base will come (again), or is owed.
	l.seen.Advance(f.Base)
	l.acked = max(l.acked, f.Base)
	fresh := l.seen.Mark(f.Seq)
	if f.Seq > l.seen.Low() {
		l.sacks = append(l.sacks, f.Seq)
	}
	switch {
	case !fresh:
		// The sender is retransmitting: the ack it waits for was lost.
		return false, l.pay(true, emit)
	case l.seen.Low()-l.acked >= uint64(l.window+1)/2:
		return true, l.pay(false, emit)
	}
	return true, nil
}

// Acked applies an ack from the peer — a KindAck up to seq, or a
// KindSack of seq alone — moving the base past every leading
// acknowledged frame, and transmits through emit the queued sends the
// window it opens lets through.
func (l *Link) Acked(kind uint8, epoch uint32, seq uint64, emit func(Frame) error) error {
	if epoch != l.local || seq <= l.base {
		return nil // for a previous incarnation of this end, or nothing new
	}
	i := seq - l.base // seq's position in unacked, from 1
	if i > uint64(len(l.unacked)) {
		return nil // never sent
	}
	n := 0
	if kind == KindAck {
		n = int(i)
	} else if s := &l.unacked[i-1]; !s.sacked {
		s.sacked = true
		l.sacked++
	}
	for n < len(l.unacked) && l.unacked[n].sacked {
		n++
	}
	for _, s := range l.unacked[:n] {
		if s.sacked {
			l.sacked--
		}
	}
	m := copy(l.unacked, l.unacked[n:])
	clear(l.unacked[m:])
	l.unacked = l.unacked[:m]
	l.base += uint64(n)
	for len(l.queued) > 0 && !l.full() {
		inner := l.queued[0]
		l.queued[0], l.queued = nil, l.queued[1:]
		if err := emit(l.transmit(inner)); err != nil {
			return err
		}
	}
	if len(l.queued) == 0 {
		l.queued = nil
	}
	return nil
}

// Tick is the retransmission scan: it resends, through emit, every
// unacknowledged frame older than rto that was not selectively
// acknowledged, then pays every ack still owed (rule 4). It returns the
// number of frames resent.
func (l *Link) Tick(now time.Time, rto time.Duration, emit func(Frame) error) (int, error) {
	n := 0
	for i := range l.unacked {
		s := &l.unacked[i]
		if s.sacked || now.Sub(s.sentAt) < rto {
			continue
		}
		s.sentAt = now
		n++
		if err := emit(l.data(l.base+uint64(i)+1, s.inner)); err != nil {
			return n, err
		}
	}
	return n, l.pay(false, emit)
}

// pay emits a selective ack for each frame the peer sent that is still
// above a gap and the cumulative ack it is owed — also when it is owed
// nothing new, if forced.
func (l *Link) pay(force bool, emit func(Frame) error) error {
	for _, seq := range l.sacks {
		if seq > l.seen.Low() {
			if err := emit(Frame{Kind: KindSack, Epoch: l.epoch, Seq: seq}); err != nil {
				return err
			}
		}
	}
	l.sacks = l.sacks[:0]
	if l.seen.Low() == l.acked && !force {
		return nil
	}
	l.acked = l.seen.Low()
	return emit(Frame{Kind: KindAck, Epoch: l.epoch, Seq: l.acked})
}

// Abandon gives up on everything unacknowledged or queued: the base
// moves past it, so a later incarnation of the peer starts its dedup
// window there. It returns the number of queued sends dropped.
func (l *Link) Abandon() int {
	n := len(l.queued)
	l.base, l.unacked, l.sacked, l.queued = l.nextSeq, nil, 0, nil
	return n
}

// State is a snapshot of a link's counters, for tests and diagnostics:
// the last seq sent, the base, the frames awaiting an ack and the sends
// awaiting window space; every seq up to Low from the peer arrived, and
// Sparse arrived above a gap.
type State struct {
	NextSeq, Base, Low      uint64
	Unacked, Queued, Sparse int
}

// State returns the link's counters.
func (l *Link) State() State {
	return State{l.nextSeq, l.base, l.seen.Low(), len(l.unacked), len(l.queued), l.seen.SparseLen()}
}
