package gc

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// routedSite starts passive site 1 of the view {0, 1, 2} with a
// countTracer. Every upcall appends to the returned log, prefixed with
// its kind: A(BCast), R(Bcast) or V(iew).
func routedSite(t *testing.T) (*Site, *simnet.Network, *countTracer, *[]string) {
	t.Helper()
	net := simnet.New(simnet.Config{Nodes: 3})
	t.Cleanup(net.Close)
	tr := &countTracer{}
	var log []string
	upcall := func(kind string) func(transport.NodeID, []byte) {
		return func(_ transport.NodeID, data []byte) { log = append(log, kind+" "+string(data)) }
	}
	s := NewSite(Config{
		Net: net, ID: 1, InitialView: NewView(0, 1, 2), FDInterval: -1, Passive: true, Tracer: tr,
		Deliver: upcall("A"), RDeliver: upcall("R"),
		OnViewChange: func(v *View) { log = append(log, fmt.Sprint("V ", v.Members())) },
	})
	s.Start()
	t.Cleanup(func() {
		s.Stop()
		for _, err := range s.Errs() {
			t.Errorf("site: %v", err)
		}
	})
	return s, net, tr, &log
}

// notRun fails the test for each handler that ran.
func notRun(t *testing.T, tr *countTracer, hs ...*core.Handler) {
	t.Helper()
	for _, h := range hs {
		if n := tr.ran(h); n != 0 {
			t.Errorf("%s ran %d times, want 0", h, n)
		}
	}
}

// TestRoutedEventsHaveOneHandler: every event a producer routes to, and
// every entry event, is bound to exactly one handler, so no delivery runs
// a handler that does not own it.
func TestRoutedEventsHaveOneHandler(t *testing.T) {
	s, _, _, _ := routedSite(t)
	ev := s.ev
	for _, et := range []*core.EventType{
		ev.FromRComm, ev.ConsIn, ev.SyncIn,
		ev.DeliverOut, ev.RDeliver, ev.ADeliver, ev.DeliverView,
		ev.FromNet, ev.FDBeat, ev.FDTick, ev.RetrTick, ev.ABcastEv, ev.Bcast,
		ev.JoinLeave,
	} {
		if n := len(s.stack.Bound(et)); n != 1 {
			t.Errorf("%s has %d handlers, want 1", et.Name(), n)
		}
	}
}

// TestABcastRApplIgnored: a plain reliable broadcast reaches the app's
// RDeliver and nothing else — never ABcast's pool, so it is not ordered.
func TestABcastRApplIgnored(t *testing.T) {
	s, _, tr, log := routedSite(t)
	if err := s.RBcast([]byte("plain")); err != nil {
		t.Fatal(err)
	}
	if want := []string{"R plain"}; !slices.Equal(*log, want) {
		t.Fatalf("upcalls %q, want %q", *log, want)
	}
	if n := tr.ran(s.app.hRDeliver); n != 1 {
		t.Errorf("app.rdeliver ran %d times, want 1", n)
	}
	notRun(t, tr, s.ab.hRecv, s.app.hDeliver, s.cons.hPropose)
	if len(s.ab.pool) != 0 {
		t.Fatalf("ABcast pooled %d casts, want none", len(s.ab.pool))
	}
}

// TestMembershipIgnoresAppDeliveries: a totally ordered application
// payload reaches the app's Deliver and never Membership, so the view
// does not change.
func TestMembershipIgnoresAppDeliveries(t *testing.T) {
	net := simnet.New(simnet.Config{Nodes: 1})
	defer net.Close()
	tr := &countTracer{}
	var log []string
	s := NewSite(Config{
		Net: net, ID: 0, InitialView: NewView(0), FDInterval: -1, Passive: true, Tracer: tr,
		Deliver:      func(_ transport.NodeID, data []byte) { log = append(log, "A "+string(data)) },
		OnViewChange: func(v *View) { log = append(log, fmt.Sprint("V ", v.Members())) },
	})
	s.Start()
	defer s.Stop()
	view := s.memb.View()
	if err := s.ABcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if want := []string{"A x"}; !slices.Equal(log, want) {
		t.Fatalf("upcalls %q, want %q", log, want)
	}
	notRun(t, tr, s.memb.hDeliverView)
	if s.memb.View() != view {
		t.Fatalf("app delivery changed the view to %v", s.memb.View())
	}
	if errs := s.Errs(); len(errs) != 0 {
		t.Fatal(errs)
	}
}

// TestUnroutableInnerDeliversNothing: data frames whose inner payload no
// layer owns — empty, or tagged 0, 4 or 255 — and casts of kinds no layer
// delivers are received without an error and delivered nowhere. RelCast
// still deduplicates each cast and relays it once. Kinds 4 and 5 are the
// retired FIFO and causal kinds; their payload "x" is no valid encoding
// of what those layers sent.
func TestUnroutableInnerDeliversNothing(t *testing.T) {
	s, net, tr, log := routedSite(t)
	inners := [][]byte{nil, {0, 'x'}, {4, 'x'}, {255, 'x'}}
	kinds := []uint8{4, 5, 9}
	casts := make([][]byte, len(kinds))
	relays := map[string]int{} // encoded cast → copies relayed to site 2
	for i, kind := range kinds {
		casts[i] = encodeCastFrame(&castMsg{ID: MsgID{Origin: 0, Seq: uint64(i + 1)}, Kind: kind, Data: []byte("x")})
		relays[string(casts[i])] = 0
		inners = append(inners, casts[i], casts[i])
	}
	for i, inner := range inners {
		d := transport.Datagram{From: 0, To: 1, Payload: appendFrame(nil, &frame{Kind: dgData, Epoch: 7, Seq: uint64(i + 1), Inner: inner})}
		if err := s.InjectDatagram(d); err != nil {
			t.Fatalf("inner %q: %v", inner, err)
		}
	}
	if len(*log) != 0 {
		t.Fatalf("upcalls %q, want none", *log)
	}
	if n, want := tr.ran(s.relcast.hRecv), 2*len(kinds); n != want {
		t.Errorf("relcast.recv ran %d times, want %d (each cast and its copy)", n, want)
	}
	notRun(t, tr, s.cons.hRecv, s.ab.hSync, s.ab.hRecv, s.app.hRDeliver)
	for {
		d, ok := net.Node(2).TryRecv()
		if !ok {
			break
		}
		frames, _, err := walkFrames(d.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if _, ok := relays[string(f.Inner)]; ok && f.Kind == dgData {
				relays[string(f.Inner)]++
			}
		}
	}
	for i, kind := range kinds {
		if n := relays[string(casts[i])]; n != 1 {
			t.Errorf("the kind-%d cast was relayed to site 2 %d times, want once", kind, n)
		}
	}
}
