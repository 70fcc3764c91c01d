package gc_test

import (
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/simnet"
)

// TestE6ViewChangeRace reproduces the paper's §3 Problem end to end.
//
// Setup: sites A=0 (origin, crashed mid-broadcast), B=1 (relay), C=2 (the
// freshly joined site). B starts with view {A,B}; C already knows the new
// view {A,B,C}. A's broadcast of m reached only B before A crashed, so C's
// only hope is B's rebroadcast.
//
// The race: B processes the view change [+C] concurrently with m. RelCast
// installs the new view first (so the rebroadcast loop targets C), but
// RelComm still holds the old view — and silently discards the send to C.
// A test hook holds B exactly in that window.
//
// Under the Cactus-model None controller the two computations interleave
// in the window and m is lost forever (RelCast already marked it seen;
// RelComm never buffered it). Under every isolating controller the m
// computation cannot interleave with the view-change computation, so C
// receives m — the paper's Solution by Isolation.
func TestE6ViewChangeRace(t *testing.T) {
	type result struct {
		delivered bool
		dropped   uint64
	}
	run := func(t *testing.T, ctrl core.Controller, kind core.SpecKind) result {
		t.Helper()
		net := simnet.New(simnet.Config{Nodes: 3})
		defer net.Close()

		inWindow := make(chan struct{}, 1)
		release := make(chan struct{})
		var b, c *gc.Site

		cDelivered := make(chan struct{}, 4)
		c = gc.NewSite(gc.Config{
			Net: net, ID: 2, InitialView: gc.NewView(0, 1, 2), FDInterval: -1,
			RDeliver: func(simnet.NodeID, []byte) { cDelivered <- struct{}{} },
		})
		c.Start()
		defer c.Stop()

		b = gc.NewSite(gc.Config{
			Net: net, ID: 1, InitialView: gc.NewView(0, 1), FDInterval: -1,
			Controller: ctrl, SpecKind: kind,
			Passive: true, // only the two orchestrated computations run on B
			AfterRelCastView: func() {
				select {
				case inWindow <- struct{}{}:
				default:
				}
				<-release
			},
		})
		b.Start()
		defer b.Stop()

		// A's broadcast of m as it arrives at B: a RelComm data datagram
		// from node 0 carrying a RelCast frame. A itself is gone.
		m := gc.BuildCastDatagram(0, 1, gc.MsgID{Origin: 0, Seq: 1}, []byte("m"))
		net.Crash(0)

		// B processes the view change [+C]; the hook parks it in the
		// window after RelCast updated but before RelComm did.
		viewDone := make(chan error, 1)
		go func() { viewDone <- b.InjectViewChange('+', 2) }()
		<-inWindow

		// B processes m concurrently. Under None it runs inside the
		// window; under an isolating controller it blocks until the
		// view-change computation completes.
		mDone := make(chan error, 1)
		go func() { mDone <- b.InjectDatagram(m) }()
		if _, isNone := ctrl.(*cc.None); isNone {
			<-mDone // interleaves freely: finishes inside the window
		} else {
			time.Sleep(30 * time.Millisecond) // let it park on the controller
		}
		close(release)
		if err := <-viewDone; err != nil {
			t.Fatal(err)
		}
		if _, isNone := ctrl.(*cc.None); !isNone {
			if err := <-mDone; err != nil {
				t.Fatal(err)
			}
		}

		// Give C's pump a moment to drain whatever B actually sent.
		select {
		case <-cDelivered:
			return result{delivered: true, dropped: b.DroppedStale()}
		case <-time.After(300 * time.Millisecond):
			return result{delivered: false, dropped: b.DroppedStale()}
		}
	}

	t.Run("none-loses-message", func(t *testing.T) {
		res := run(t, cc.NewNone(), core.SpecBasic)
		if res.delivered {
			t.Fatal("under None the §3 race must lose the message")
		}
		if res.dropped == 0 {
			t.Fatal("RelComm should have dropped the send to the joiner (stale view)")
		}
	})
	t.Run("vca-basic-delivers", func(t *testing.T) {
		res := run(t, cc.NewVCABasic(), core.SpecBasic)
		if !res.delivered {
			t.Fatalf("VCAbasic must prevent the race (dropped=%d)", res.dropped)
		}
	})
	t.Run("vca-bound-delivers", func(t *testing.T) {
		res := run(t, cc.NewVCABound(), core.SpecBound)
		if !res.delivered {
			t.Fatalf("VCAbound must prevent the race (dropped=%d)", res.dropped)
		}
	})
	t.Run("vca-route-delivers", func(t *testing.T) {
		res := run(t, cc.NewVCARoute(), core.SpecRoute)
		if !res.delivered {
			t.Fatalf("VCAroute must prevent the race (dropped=%d)", res.dropped)
		}
	})
	t.Run("serial-delivers", func(t *testing.T) {
		res := run(t, cc.NewSerial(), core.SpecBasic)
		if !res.delivered {
			t.Fatalf("Serial must prevent the race (dropped=%d)", res.dropped)
		}
	})
}
