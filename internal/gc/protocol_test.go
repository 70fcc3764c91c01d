package gc_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gc"
	"repro/internal/simnet"
	"repro/internal/transport/faultnet"
)

// TestRelCommRetransmission: a message sent across a partition is lost,
// then delivered after the partition heals, by the retransmission timer.
func TestRelCommRetransmission(t *testing.T) {
	net := faultnet.New(faultnet.Config{Inner: simnet.New(simnet.Config{Nodes: 2}), Seed: 71})
	defer net.Close()
	var got atomic.Int32
	view := gc.NewView(0, 1)
	a := gc.NewSite(gc.Config{
		Net: net, ID: 0, InitialView: view, FDInterval: -1,
		RTO: 10 * time.Millisecond,
	})
	b := gc.NewSite(gc.Config{
		Net: net, ID: 1, InitialView: view, FDInterval: -1,
		RTO:      10 * time.Millisecond,
		RDeliver: func(simnet.NodeID, []byte) { got.Add(1) },
	})
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	net.Partition([]simnet.NodeID{0}, []simnet.NodeID{1})
	if err := a.RBcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("delivery crossed the partition")
	}
	net.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("retransmission never delivered; net=%+v", net.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRelCommExactlyOnce: duplicated datagrams deliver upward once.
func TestRelCommExactlyOnce(t *testing.T) {
	net := simnet.New(simnet.Config{Nodes: 2})
	defer net.Close()
	var got atomic.Int32
	b := gc.NewSite(gc.Config{
		Net: net, ID: 1, InitialView: gc.NewView(0, 1), FDInterval: -1,
		RDeliver: func(simnet.NodeID, []byte) { got.Add(1) },
	})
	b.Start()
	defer b.Stop()

	d := gc.BuildCastDatagram(0, 1, gc.MsgID{Origin: 0, Seq: 1}, []byte("dup"))
	for i := 0; i < 3; i++ {
		if err := b.InjectDatagram(d); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 1 {
		t.Fatalf("delivered %d times, want exactly once", got.Load())
	}
}

// TestRelCastDistinctMessagesBothDeliver: dedupe is per message ID, not
// per sender.
func TestRelCastDistinctMessages(t *testing.T) {
	net := simnet.New(simnet.Config{Nodes: 2})
	defer net.Close()
	var got atomic.Int32
	b := gc.NewSite(gc.Config{
		Net: net, ID: 1, InitialView: gc.NewView(0, 1), FDInterval: -1,
		RDeliver: func(simnet.NodeID, []byte) { got.Add(1) },
	})
	b.Start()
	defer b.Stop()
	if err := b.InjectDatagram(gc.BuildCastDatagram(0, 1, gc.MsgID{Origin: 0, Seq: 1}, []byte("m1"))); err != nil {
		t.Fatal(err)
	}
	if err := b.InjectDatagram(gc.BuildCastDatagram(0, 2, gc.MsgID{Origin: 0, Seq: 2}, []byte("m2"))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 2 {
		t.Fatalf("delivered %d, want 2", got.Load())
	}
}

// TestCrashNonCoordinator: losing a non-coordinator member keeps the
// quorum and does not need round advancement.
func TestCrashNonCoordinator(t *testing.T) {
	c := newCluster(t, 3, 74, latency(50*time.Microsecond, 300*time.Microsecond))
	view := gc.NewView(0, 1, 2)
	for id := simnet.NodeID(0); id < 3; id++ {
		c.addSite(id, view, func(cfg *gc.Config) {
			cfg.FDInterval = 10 * time.Millisecond
			cfg.SuspectAfter = 60 * time.Millisecond
		})
	}
	c.net.Crash(2) // instance 0 coordinator is site 0; 2 is a bystander
	if err := c.sites[0].ABcast([]byte("m")); err != nil {
		t.Fatal(err)
	}
	c.waitDeliveredAt(0, 1)
	c.waitDeliveredAt(1, 1)
}

// TestViewAccessorsAndStats exercises the Site introspection surface.
func TestViewAccessorsAndStats(t *testing.T) {
	net := simnet.New(simnet.Config{Nodes: 1})
	defer net.Close()
	s := gc.NewSite(gc.Config{Net: net, ID: 0, InitialView: gc.NewView(0), FDInterval: -1})
	s.Start()
	defer s.Stop()
	if s.ID() != 0 {
		t.Fatal("ID")
	}
	if !s.View().Contains(0) || s.View().Size() != 1 {
		t.Fatalf("view = %v", s.View())
	}
	if s.DroppedStale() != 0 {
		t.Fatal("fresh site dropped sends")
	}
	if len(s.Errs()) != 0 {
		t.Fatalf("errs = %v", s.Errs())
	}
}

// TestSiteConfigValidation: construction-time misuse panics.
func TestSiteConfigValidation(t *testing.T) {
	net := simnet.New(simnet.Config{Nodes: 1})
	defer net.Close()
	mustPanicGC(t, "nil net", func() {
		gc.NewSite(gc.Config{ID: 0, InitialView: gc.NewView(0)})
	})
	mustPanicGC(t, "view without self", func() {
		gc.NewSite(gc.Config{Net: net, ID: 0, InitialView: gc.NewView(1)})
	})
}

func mustPanicGC(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestTwoGroupsShareNetwork: independent stacks on one network do not
// interfere (different views, no cross-talk deliveries).
func TestTwoGroupsShareNetwork(t *testing.T) {
	c := newCluster(t, 4, 78, faultnet.Rates{})
	g1 := gc.NewView(0, 1)
	g2 := gc.NewView(2, 3)
	for _, id := range []simnet.NodeID{0, 1} {
		c.addSite(id, g1, nil)
	}
	for _, id := range []simnet.NodeID{2, 3} {
		c.addSite(id, g2, nil)
	}
	if err := c.sites[0].ABcast([]byte("g1-msg")); err != nil {
		t.Fatal(err)
	}
	if err := c.sites[2].ABcast([]byte("g2-msg")); err != nil {
		t.Fatal(err)
	}
	c.waitDeliveredAt(0, 1)
	c.waitDeliveredAt(1, 1)
	c.waitDeliveredAt(2, 1)
	c.waitDeliveredAt(3, 1)
	if got := c.adeliveries(0); got[0] != "g1-msg" {
		t.Fatalf("group 1 delivered %v", got)
	}
	if got := c.adeliveries(2); got[0] != "g2-msg" {
		t.Fatalf("group 2 delivered %v", got)
	}
}
