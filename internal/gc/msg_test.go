package gc

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
	"repro/internal/wire"
)

func TestCastMsgRoundTrip(t *testing.T) {
	for _, m := range []CastMsg{
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
		Type: cAccept, Inst: 12, Round: 3, AccRound: 2, Done: 300, HasValue: true,
		Value: []CastMsg{
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
	if got.Type != m.Type || got.Inst != m.Inst || got.Round != m.Round || got.Done != m.Done || len(got.Value) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Value[1].Site != 4 || got.Value[0].Data[0] != 'a' {
		t.Fatalf("value round trip: %+v", got.Value)
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
	cm := CastMsg{ID: MsgID{Origin: 1, Seq: 2}, Kind: castApp, Data: []byte("x")}
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

func TestFrameEncodings(t *testing.T) {
	p := appendData(nil, 77, 9, []byte("inner"))
	if len(p) != dataLen([]byte("inner")) {
		t.Fatalf("dataLen = %d, encoded %d", dataLen([]byte("inner")), len(p))
	}
	p = appendAck(p, 78, 10)
	f, rest, err := decodeFrame(p)
	if err != nil || f.kind != dgData || f.epoch != 77 || f.seq != 9 || string(f.inner) != "inner" {
		t.Fatalf("data frame round trip: %+v, %v", f, err)
	}
	f, rest, err = decodeFrame(rest)
	if err != nil || f.kind != dgAck || f.epoch != 78 || f.seq != 10 || len(rest) != 0 {
		t.Fatalf("ack frame round trip: %+v, %v", f, err)
	}
}

// TestClassify: a datagram gets the ack spec only if every well-formed
// frame in it is an ack; a heartbeat is a datagram of its own.
func TestClassify(t *testing.T) {
	ack := appendAck(nil, 1, 1)
	data := appendData(nil, 1, 1, []byte("x"))
	join := func(ps ...[]byte) []byte { return bytes.Join(ps, nil) }
	for _, c := range []struct {
		name string
		p    []byte
		want uint8
	}{
		{"beat", []byte{dgBeat}, classBeat},
		{"one ack", ack, classAck},
		{"three acks", join(ack, ack, ack), classAck},
		{"acks with a cut tail", join(ack, ack[:5]), classAck},
		{"data", data, classMixed},
		{"ack then data", join(ack, data), classMixed},
		{"data then ack", join(data, ack), classMixed},
		{"unknown kind", []byte{99}, classMixed},
		{"ack then unknown kind", join(ack, []byte{99}), classMixed},
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
	if !a.Less(b) || b.Less(a) || !b.Less(c) || c.Less(a) {
		t.Fatal("ordering wrong")
	}
	if a.String() != "1:5" {
		t.Fatalf("string = %q", a.String())
	}
}

func TestCastMsgQuickRoundTrip(t *testing.T) {
	prop := func(origin uint16, seq uint64, data []byte) bool {
		m := CastMsg{ID: MsgID{Origin: simnet.NodeID(origin), Seq: seq}, Kind: castApp, Data: data}
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
