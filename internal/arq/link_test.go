package arq

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

const (
	local = 1 // the link's own epoch, which acks to it echo
	peer  = 7 // the peer's epoch
	rto   = time.Hour
)

// env is how far a case's tick runs ahead of the wall clock, which sends
// stamp their frames with, and the frames its link emitted, written
// D<seq>+a<ack> for data, A<seq>@<epoch> for a cumulative ack and
// S<seq>@<epoch> for a selective one.
type env struct {
	ahead time.Duration
	out   []string
}

func (e *env) emit(f Frame) error {
	switch f.Kind {
	case KindData:
		e.out = append(e.out, fmt.Sprintf("D%d+a%d", f.Seq, f.Ack))
	case KindAck:
		e.out = append(e.out, fmt.Sprintf("A%d@%d", f.Seq, f.Epoch))
	default:
		e.out = append(e.out, fmt.Sprintf("S%d@%d", f.Seq, f.Epoch))
	}
	return nil
}

type step func(l *Link, e *env)

// send offers n payloads, emitting the frames the window lets through.
func send(n int) step {
	return func(l *Link, e *env) {
		for range n {
			l.Send(nil, e.emit)
		}
	}
}

// acked applies a peer's ack of the given kind and epoch.
func acked(kind uint8, epoch uint32, seq uint64) step {
	return func(l *Link, e *env) { l.Acked(kind, epoch, seq, e.emit) }
}

func ack(seq uint64) step  { return acked(KindAck, local, seq) }
func sack(seq uint64) step { return acked(KindSack, local, seq) }

// data receives data frame seq of epoch with sender base base.
func data(epoch uint32, seq, base uint64) step {
	return func(l *Link, e *env) { l.Receive(&Frame{Kind: KindData, Epoch: epoch, Seq: seq, Base: base}, e.emit) }
}

func tick(l *Link, e *env)      { l.Tick(time.Now().Add(e.ahead), rto, e.emit) }
func wait(d time.Duration) step { return func(_ *Link, e *env) { e.ahead += d } }
func abandon(l *Link, _ *env)   { l.Abandon() }

func TestLink(t *testing.T) {
	for _, c := range []struct {
		name   string
		window int
		steps  []step
		out    string
		want   State
	}{
		{
			name: "cumulative ack moves the base", window: 8,
			steps: []step{send(3), ack(2)},
			out:   "D1+a0 D2+a0 D3+a0",
			want:  State{NextSeq: 3, Base: 2, Unacked: 1},
		},
		{
			name: "ack for another incarnation is ignored", window: 8,
			steps: []step{send(2), acked(KindAck, local+1, 2)},
			out:   "D1+a0 D2+a0",
			want:  State{NextSeq: 2, Unacked: 2},
		},
		{
			name: "sack above a gap holds the base until the gap fills", window: 8,
			steps: []step{send(3), sack(2), ack(1)},
			out:   "D1+a0 D2+a0 D3+a0",
			want:  State{NextSeq: 3, Base: 2, Unacked: 1},
		},
		{
			name: "frame above a gap is sacked by the tick until the gap fills", window: 8,
			steps: []step{data(peer, 1, 0), data(peer, 3, 0), tick, data(peer, 2, 0), tick},
			out:   "S3@7 A1@7 A3@7",
			want:  State{Low: 3},
		},
		{
			name: "new epoch resets the dedup window", window: 8,
			steps: []step{data(peer, 1, 0), data(peer, 2, 0), data(peer+1, 1, 0), tick},
			out:   "A1@8",
			want:  State{Low: 1},
		},
		{
			name: "base advance compacts seen", window: 8,
			steps: []step{data(peer, 5, 0), data(peer, 6, 4)},
			want:  State{Low: 6},
		},
		{
			name: "frame at or below the base is a duplicate", window: 8,
			steps: []step{data(peer, 5, 4), data(peer, 3, 0)},
			out:   "A5@7",
			want:  State{Low: 5},
		},
		{
			name: "full window queues sends and acks drain them", window: 2,
			steps: []step{send(5), ack(1), ack(3)},
			out:   "D1+a0 D2+a0 D3+a0 D4+a0 D5+a0",
			want:  State{NextSeq: 5, Base: 3, Unacked: 2},
		},
		{
			name: "queued sends wait for the window", window: 2,
			steps: []step{send(5), ack(0), acked(KindAck, local+1, 2)},
			out:   "D1+a0 D2+a0",
			want:  State{NextSeq: 2, Unacked: 2, Queued: 3},
		},
		{
			name: "a sacked frame holds no window slot", window: 2,
			steps: []step{send(5), sack(2), sack(2), sack(3), ack(1)},
			out:   "D1+a0 D2+a0 D3+a0 D4+a0 D5+a0",
			want:  State{NextSeq: 5, Base: 3, Unacked: 2},
		},
		{
			name: "due scan skips sacked and young frames", window: 8,
			steps: []step{send(3), sack(2), tick, wait(rto), tick},
			out:   "D1+a0 D2+a0 D3+a0 D1+a0 D3+a0",
			want:  State{NextSeq: 3, Unacked: 3},
		},
		{
			name: "piggybacked ack moves the base", window: 8,
			steps: []step{send(2), func(l *Link, e *env) {
				l.Receive(&Frame{Kind: KindData, Epoch: peer, Seq: 1, AckEpoch: local, Ack: 2}, e.emit)
			}},
			out:  "D1+a0 D2+a0",
			want: State{NextSeq: 2, Base: 2, Low: 1},
		},
		{
			name: "rule 1: an owed ack rides the next data frame", window: 8,
			steps: []step{data(peer, 1, 0), data(peer, 2, 0), send(1), tick},
			out:   "D1+a2",
			want:  State{NextSeq: 1, Unacked: 1, Low: 2},
		},
		{
			name: "rule 2: a duplicate is acked at once, even when paid", window: 8,
			steps: []step{data(peer, 1, 0), tick, data(peer, 1, 0)},
			out:   "A1@7 A1@7",
			want:  State{Low: 1},
		},
		{
			name: "rule 3: half a window owed is paid at once", window: 4,
			steps: []step{data(peer, 1, 0), data(peer, 2, 0)},
			out:   "A2@7",
			want:  State{Low: 2},
		},
		{
			name: "rule 4: the tick pays what is still owed, once", window: 8,
			steps: []step{data(peer, 1, 0), tick, tick},
			out:   "A1@7",
			want:  State{Low: 1},
		},
		{
			name: "abandon gives up what is unacked and queued", window: 2,
			steps: []step{send(3), abandon, wait(rto), tick},
			out:   "D1+a0 D2+a0",
			want:  State{NextSeq: 2, Base: 2},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := NewLink(local, c.window)
			e := &env{}
			for _, s := range c.steps {
				s(l, e)
			}
			if out := strings.Join(e.out, " "); out != c.out {
				t.Errorf("emitted %q, want %q", out, c.out)
			}
			if got := l.State(); got != c.want {
				t.Errorf("state %+v, want %+v", got, c.want)
			}
		})
	}
}

// TestFrameRoundTrip: every kind decodes to what was encoded, Size is
// the encoded length, and a truncated frame or an unknown kind is
// ErrBadFrame.
func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Kind: KindData, Epoch: 0xA1B2C3D4, Seq: 1 << 40, AckEpoch: 0x01020304, Ack: 1<<40 - 3, Base: 1<<33 + 7, Inner: []byte("payload")},
		{Kind: KindAck, Epoch: 78, Seq: 10},
		{Kind: KindSack, Epoch: 79, Seq: 11},
	} {
		p := f.Append(nil)
		if len(p) != f.Size() {
			t.Fatalf("kind %d: size %d, encoded %d", f.Kind, f.Size(), len(p))
		}
		got, rest, err := Decode(append(p, 0xEE))
		if err != nil || got.Kind != f.Kind || got.Epoch != f.Epoch || got.Seq != f.Seq || got.AckEpoch != f.AckEpoch ||
			got.Ack != f.Ack || got.Base != f.Base || string(got.Inner) != string(f.Inner) || string(rest) != "\xEE" {
			t.Fatalf("kind %d round trip: %+v, rest %v, %v", f.Kind, got, rest, err)
		}
		for cut := 1; cut < len(p); cut++ {
			if _, _, err := Decode(p[:cut]); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("kind %d cut at %d of %d decoded", f.Kind, cut, len(p))
			}
		}
	}
	if _, _, err := Decode([]byte{3}); !errors.Is(err, ErrBadFrame) {
		t.Fatal("kind 3 decoded")
	}
}
