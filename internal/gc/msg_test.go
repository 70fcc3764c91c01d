package gc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/arq"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func TestCastMsgRoundTrip(t *testing.T) {
	for _, m := range []castMsg{
		{ID: MsgID{Origin: 3, Seq: 42}, Kind: castApp, Data: []byte("payload")},
		{ID: MsgID{Origin: 0, Seq: 1}, Kind: castRApp, Data: nil},
		{ID: MsgID{Origin: 7, Seq: 9}, Kind: castViewChg, Op: '+', Site: 5},
		{ID: MsgID{Origin: 7, Seq: 10}, Kind: castViewChg, Op: '-', Site: 2},
	} {
		w := wire.NewWriter(64)
		m.encode(w)
		r := wire.NewReader(w.Bytes())
		got := decodeCastMsg(r)
		if r.Err() != nil {
			t.Fatalf("decode: %v", r.Err())
		}
		if got.ID != m.ID || got.Kind != m.Kind || got.Op != m.Op || got.Site != m.Site || !bytes.Equal(got.Data, m.Data) {
			t.Fatalf("round trip: %+v != %+v", got, m)
		}
	}
}

func TestConsMsgRoundTrip(t *testing.T) {
	m := consMsg{
		Type: cAccept, Inst: 12, Round: 3, AccRound: 2, Done: 300, Voted: true, HasValue: true,
		Value: []castMsg{
			{ID: MsgID{Origin: 1, Seq: 1}, Kind: castApp, Data: []byte("a")},
			{ID: MsgID{Origin: 2, Seq: 9}, Kind: castViewChg, Op: '+', Site: 4},
		},
	}
	w := wire.NewWriter(64)
	m.encode(w)
	r := wire.NewReader(w.Bytes())
	got := decodeConsMsg(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if got.Type != m.Type || got.Inst != m.Inst || got.Round != m.Round || got.Done != m.Done || !got.Voted || len(got.Value) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Value[1].Site != 4 || got.Value[0].Data[0] != 'a' {
		t.Fatalf("value round trip: %+v", got.Value)
	}
	refusal := consMsg{Type: cRefused, Inst: 12, Round: 3, Done: 7}
	w = wire.NewWriter(16)
	refusal.encode(w)
	r = wire.NewReader(w.Bytes())
	if got := decodeConsMsg(r); r.Err() != nil || got.Type != cRefused || got.Inst != 12 || got.Round != 3 || got.Done != 7 || got.Voted || got.HasValue {
		t.Fatalf("refusal round trip: %+v (err %v)", got, r.Err())
	}
}

func TestConsMsgNoValue(t *testing.T) {
	m := consMsg{Type: cPrepare, Inst: 1, Round: 7}
	w := wire.NewWriter(16)
	m.encode(w)
	got := decodeConsMsg(wire.NewReader(w.Bytes()))
	if got.HasValue || got.Round != 7 {
		t.Fatalf("got %+v", got)
	}
}

func TestFrameLayers(t *testing.T) {
	cm := castMsg{ID: MsgID{Origin: 1, Seq: 2}, Kind: castApp, Data: []byte("x")}
	if f := encodeCastFrame(&cm); f[0] != layerRelCast {
		t.Fatal("cast frame layer")
	}
	if f := encodeConsFrame(&consMsg{Type: cDecide}); f[0] != layerConsensus {
		t.Fatal("cons frame layer")
	}
	if f := encodeSyncFrame(5, []byte("snap")); f[0] != layerSync {
		t.Fatal("sync frame layer")
	}
}

func TestSyncFrameRoundTrip(t *testing.T) {
	f := encodeSyncFrame(7, []byte("state"))
	r := wire.NewReader(f)
	if r.U8() != layerSync || r.U64() != 7 || string(r.BytesPrefixed()) != "state" || r.Err() != nil {
		t.Fatal("sync frame round trip")
	}
	f = encodeSyncFrame(3, nil)
	r = wire.NewReader(f)
	if r.U8() != layerSync || r.U64() != 3 || len(r.BytesPrefixed()) != 0 || r.Err() != nil {
		t.Fatal("empty-snapshot sync frame round trip")
	}
}

// errBadFrame is the error a malformed frame decodes to.
var errBadFrame = arq.ErrBadFrame

// appendFrame encodes f at the end of dst, and frameSize is its encoded
// length: those of an ARQ frame, or the kind byte alone for a heartbeat.
func appendFrame(dst []byte, f *frame) []byte {
	if f.Kind == dgBeat {
		return append(dst, dgBeat)
	}
	return f.Append(dst)
}

func frameSize(f *frame) int {
	if f.Kind == dgBeat {
		return 1
	}
	return f.Size()
}

// dataFrame and ackFrame encode one frame each, for building test
// datagrams: a data frame with no piggybacked ack and base 0, and a
// cumulative ack.
func dataFrame(epoch uint32, seq uint64, inner string) []byte {
	return appendFrame(nil, &frame{Kind: dgData, Epoch: epoch, Seq: seq, Inner: []byte(inner)})
}

func ackFrame(epoch uint32, seq uint64) []byte {
	return appendFrame(nil, &frame{Kind: dgAck, Epoch: epoch, Seq: seq})
}

func TestFrameEncodings(t *testing.T) {
	for _, f := range []frame{
		{Kind: dgData, Epoch: 77, Seq: 9, Inner: []byte("inner")},
		{Kind: dgAck, Epoch: 78, Seq: 10},
		{Kind: dgSack, Epoch: 79, Seq: 11},
		{Kind: dgBeat},
	} {
		p := appendFrame(nil, &f)
		if len(p) != frameSize(&f) {
			t.Fatalf("kind %d: size %d, encoded %d", f.Kind, frameSize(&f), len(p))
		}
		got, rest, err := decodeFrame(append(p, 0xEE))
		if err != nil || got.Kind != f.Kind || got.Epoch != f.Epoch || got.Seq != f.Seq ||
			!bytes.Equal(got.Inner, f.Inner) || !bytes.Equal(rest, []byte{0xEE}) {
			t.Fatalf("kind %d round trip: %+v, rest %v, %v", f.Kind, got, rest, err)
		}
	}
}

// TestDataHeaderRoundTrip: a data frame's header carries the piggybacked
// ack (echoed epoch, cumulative seq) and the sender base, and a data
// frame cut at any byte of its header or payload is an error, never a
// shorter frame.
func TestDataHeaderRoundTrip(t *testing.T) {
	f := frame{Kind: dgData, Epoch: 0xA1B2C3D4, Seq: 1 << 40, AckEpoch: 0x01020304, Ack: 1<<40 - 3, Base: 1<<33 + 7, Inner: []byte("payload")}
	p := appendFrame(nil, &f)
	got, rest, err := decodeFrame(p)
	if err != nil || len(rest) != 0 || got.Epoch != f.Epoch || got.Seq != f.Seq || got.AckEpoch != f.AckEpoch ||
		got.Ack != f.Ack || got.Base != f.Base || string(got.Inner) != "payload" {
		t.Fatalf("round trip: %+v, rest %d, %v", got, len(rest), err)
	}
	for cut := 1; cut < len(p); cut++ {
		if _, _, err := decodeFrame(p[:cut]); !errors.Is(err, errBadFrame) {
			t.Fatalf("cut at %d of %d: error %v, want errBadFrame", cut, len(p), err)
		}
	}
}

// TestClassify: a heartbeat is a datagram of its own; anything else —
// acks included — runs on the data path.
func TestClassify(t *testing.T) {
	ack := ackFrame(1, 1)
	data := dataFrame(1, 1, "x")
	join := func(ps ...[]byte) []byte { return bytes.Join(ps, nil) }
	for _, c := range []struct {
		name string
		p    []byte
		want uint8
	}{
		{"beat", []byte{dgBeat}, classBeat},
		{"one ack", ack, classMixed},
		{"three acks", join(ack, ack, ack), classMixed},
		{"data", data, classMixed},
		{"ack then data", join(ack, data), classMixed},
		{"unknown kind", []byte{99}, classMixed},
	} {
		if got := classify(c.p); got != c.want {
			t.Errorf("%s: class %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMsgIDOrdering(t *testing.T) {
	a := MsgID{Origin: 1, Seq: 5}
	b := MsgID{Origin: 1, Seq: 6}
	c := MsgID{Origin: 2, Seq: 1}
	if !a.less(b) || b.less(a) || !b.less(c) || c.less(a) {
		t.Fatal("ordering wrong")
	}
	if a.String() != "1:5" {
		t.Fatalf("string = %q", a.String())
	}
}

func TestCastMsgQuickRoundTrip(t *testing.T) {
	prop := func(origin uint16, seq uint64, data []byte) bool {
		m := castMsg{ID: MsgID{Origin: simnet.NodeID(origin), Seq: seq}, Kind: castApp, Data: data}
		w := wire.NewWriter(32)
		m.encode(w)
		r := wire.NewReader(w.Bytes())
		got := decodeCastMsg(r)
		return r.Err() == nil && got.ID == m.ID && bytes.Equal(got.Data, m.Data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	prop := func(buf []byte) bool {
		r := wire.NewReader(buf)
		_ = decodeConsMsg(r)
		r2 := wire.NewReader(buf)
		_ = decodeCastMsg(r2)
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
