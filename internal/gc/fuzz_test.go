package gc

import (
	"bytes"
	"testing"

	"repro/internal/simnet"
	"repro/internal/wire"
)

// FuzzDecodeMessages feeds arbitrary bytes to every gc decoder: none may
// panic; errors must surface through the sticky reader.
func FuzzDecodeMessages(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeCastFrame(&castMsg{ID: MsgID{Origin: 1, Seq: 2}, Kind: castApp, Data: []byte("x")}))
	f.Add(encodeConsFrame(&consMsg{Type: cAccept, Inst: 1, Round: 2, HasValue: true,
		Voted: true, Value: []castMsg{{ID: MsgID{Origin: 1, Seq: 1}, Kind: castViewChg, Op: '+', Site: 3}}}))
	f.Add(encodeConsFrame(&consMsg{Type: cRefused, Inst: 1, Round: 2}))
	f.Add(encodeSyncFrame(7, []byte("snap")))
	f.Add(dataFrame(4, 9, "inner"))
	f.Add(ackFrame(4, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = decodeCastMsg(wire.NewReader(data))
		_ = decodeConsMsg(wire.NewReader(data))
	})
}

// FuzzSiteSurvivesGarbageDatagrams injects arbitrary datagrams into a
// passive site: the stack must neither panic nor wedge; decode failures
// surface via Errs, and valid frames behave normally.
func FuzzSiteSurvivesGarbageDatagrams(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{dgData})
	f.Add([]byte{dgAck, 1, 2})
	f.Add([]byte{dgBeat})
	cast := encodeCastFrame(&castMsg{ID: MsgID{Origin: 0, Seq: 1}, Kind: castRApp, Data: []byte("ok")})
	castData := appendFrame(nil, &frame{Kind: dgData, Seq: 1, Inner: cast})
	f.Add(castData)
	f.Add(bytes.Join([][]byte{ackFrame(7, 3), castData, ackFrame(7, 4)}, nil))
	// Inner payloads no layer owns: empty, tags 0, 4 and 255, and casts of
	// kinds no layer delivers, among them the retired kinds 4 and 5.
	inners := [][]byte{nil, {0}, {4, 'x'}, {255, 'x'}}
	for i, kind := range []uint8{4, 5, 9} {
		inners = append(inners, encodeCastFrame(&castMsg{ID: MsgID{Origin: 0, Seq: uint64(i + 2)}, Kind: kind, Data: []byte("?")}))
	}
	for i, inner := range inners {
		f.Add(appendFrame(nil, &frame{Kind: dgData, Seq: uint64(i + 1), Inner: inner}))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		net := simnet.New(simnet.Config{Nodes: 2})
		defer net.Close()
		s := NewSite(Config{
			Net: net, ID: 1, InitialView: NewView(0, 1),
			FDInterval: -1, Passive: true,
		})
		s.Start()
		defer s.Stop()
		_ = s.InjectDatagram(simnet.Datagram{From: 0, To: 1, Payload: payload})
	})
}

// walkFrames decodes a datagram the way RelComm.recv does, returning the
// frames before the first malformed one and the offset each ends at.
func walkFrames(p []byte) (frames []frame, ends []int, err error) {
	total := len(p)
	for len(p) > 0 {
		f, rest, derr := decodeFrame(p)
		if derr != nil {
			return frames, ends, derr
		}
		frames, ends, p = append(frames, f), append(ends, total-len(rest)), rest
	}
	return frames, ends, nil
}

// sameFrame compares two decoded frames field by field.
func sameFrame(a, b frame) bool {
	return a.Kind == b.Kind && a.Epoch == b.Epoch && a.Seq == b.Seq && a.AckEpoch == b.AckEpoch &&
		a.Ack == b.Ack && a.Base == b.Base && bytes.Equal(a.Inner, b.Inner)
}

// FuzzDatagramFrames feeds arbitrary bytes to the datagram decoder: it
// never panics, every frame it accepts survives re-encoding, and cutting a
// datagram short loses exactly the frames the cut reaches — the
// well-formed frames before a malformed tail are kept.
func FuzzDatagramFrames(f *testing.F) {
	ack := ackFrame(7, 3)
	data := dataFrame(7, 4, "inner")
	f.Add([]byte{}, uint16(0))
	f.Add(ack, uint16(5))
	f.Add(data, uint16(15))
	f.Add(bytes.Join([][]byte{ack, data, ack, data}, nil), uint16(30))
	f.Add([]byte{dgBeat}, uint16(0))
	f.Add(append(append([]byte(nil), ack...), 99), uint16(13))
	// A data frame with a piggybacked ack and a base, then a selective
	// ack, cut at every byte.
	hdrs := bytes.Join([][]byte{
		appendFrame(nil, &frame{Kind: dgData, Epoch: 7, Seq: 5, AckEpoch: 9, Ack: 4, Base: 2, Inner: []byte("x")}),
		appendFrame(nil, &frame{Kind: dgSack, Epoch: 9, Seq: 6}),
	}, nil)
	for cut := range len(hdrs) + 1 {
		f.Add(hdrs, uint16(cut))
	}
	// A voted ACCEPT and a refusal riding data frames.
	voted := encodeConsFrame(&consMsg{Type: cAccept, Inst: 3, Round: 1, Done: 2, Voted: true, HasValue: true,
		Value: []castMsg{{ID: MsgID{Origin: 1, Seq: 4}, Kind: castApp, Data: []byte("v")}}})
	refused := encodeConsFrame(&consMsg{Type: cRefused, Inst: 3, Round: 1, Done: 2})
	f.Add(bytes.Join([][]byte{
		appendFrame(nil, &frame{Kind: dgData, Epoch: 7, Seq: 8, Inner: voted}),
		appendFrame(nil, &frame{Kind: dgData, Epoch: 7, Seq: 9, Inner: refused}),
	}, nil), uint16(20))
	f.Fuzz(func(t *testing.T, p []byte, cut uint16) {
		if len(p) > 0 {
			classify(p)
		}
		frames, ends, _ := walkFrames(p)
		for _, fr := range frames {
			switch fr.Kind {
			case dgData, dgAck, dgSack, dgBeat:
			default:
				t.Fatalf("decoder accepted kind %d", fr.Kind)
			}
			enc := appendFrame(nil, &fr)
			if len(enc) != frameSize(&fr) {
				t.Fatalf("size says %d, frame encodes to %d bytes", frameSize(&fr), len(enc))
			}
			back, rest, err := decodeFrame(enc)
			if err != nil || len(rest) != 0 || !sameFrame(back, fr) {
				t.Fatalf("frame %+v re-decoded as %+v (rest %d, err %v)", fr, back, len(rest), err)
			}
		}

		c := 0
		if len(p) > 0 {
			c = int(cut) % (len(p) + 1)
		}
		keep := 0
		for keep < len(ends) && ends[keep] <= c {
			keep++
		}
		short, _, err := walkFrames(p[:c])
		if len(short) != keep {
			t.Fatalf("cut at %d of %d: %d frames decoded, %d end before the cut", c, len(p), len(short), keep)
		}
		if onBoundary := c == 0 || (keep > 0 && ends[keep-1] == c); onBoundary != (err == nil) {
			t.Fatalf("cut at %d of %d: error %v, cut on a frame boundary: %v", c, len(p), err, onBoundary)
		}
		for i, fr := range short {
			if !sameFrame(fr, frames[i]) {
				t.Fatalf("cut at %d: frame %d decoded as %+v, was %+v", c, i, fr, frames[i])
			}
		}
	})
}
