package gc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// originCrashGroup is the shape of the relay tests: a 3-site group with
// the failure detector on, in which the origin, site 1, never reaches
// site 0 — instance 0's coordinator — so its casts land only on site 2,
// and it crashes right after casting. Site 0 can learn the message only
// from site 2.
type originCrashGroup struct {
	sim   *simnet.Network
	sites []*Site

	mu   sync.Mutex
	a, r map[transport.NodeID][]string // a-delivered and r-delivered payloads per site
}

func newOriginCrashGroup(t *testing.T) *originCrashGroup {
	t.Helper()
	g := &originCrashGroup{
		sim: simnet.New(simnet.Config{Nodes: 3}),
		a:   make(map[transport.NodeID][]string),
		r:   make(map[transport.NodeID][]string),
	}
	t.Cleanup(g.sim.Close)
	net := tapNet{Transport: g.sim, drop: func(from, to transport.NodeID) bool {
		return from == 1 && to == 0
	}}
	g.sites, _ = startSites(t, net, 3, func(id transport.NodeID, cfg *Config) {
		cfg.FDInterval = 10 * time.Millisecond
		cfg.SuspectAfter = 60 * time.Millisecond
		cfg.Deliver = func(_ transport.NodeID, data []byte) { g.log(g.a, id, data) }
		cfg.RDeliver = func(_ transport.NodeID, data []byte) { g.log(g.r, id, data) }
	})
	return g
}

func (g *originCrashGroup) log(m map[transport.NodeID][]string, id transport.NodeID, data []byte) {
	g.mu.Lock()
	m[id] = append(m[id], string(data))
	g.mu.Unlock()
}

func (g *originCrashGroup) got(m map[transport.NodeID][]string, id transport.NodeID) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), m[id]...)
}

// TestOrderedCastSurvivesOriginCrashWithoutRelay: RelCast does not relay
// an ABcast message, so a cast whose origin crashed after reaching only
// site 2 gets to site 0 through consensus alone — site 2 proposes it, and
// PROPOSE, ACCEPT and DECIDE carry the payload — and both survivors
// a-deliver it, in the same order and with the same payload.
func TestOrderedCastSurvivesOriginCrashWithoutRelay(t *testing.T) {
	g := newOriginCrashGroup(t)
	if err := g.sites[1].ABcast([]byte("orphan")); err != nil {
		t.Fatal(err)
	}
	// Site 2 already holds the cast: ABcast flushed every datagram before
	// returning, and simnet queues a datagram at Send.
	g.sim.Crash(1)
	if err := g.sites[0].ABcast([]byte("survivor")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "both survivors to a-deliver both casts", func() bool {
		return len(g.got(g.a, 0)) == 2 && len(g.got(g.a, 2)) == 2
	})
	at0, at2 := fmt.Sprint(g.got(g.a, 0)), fmt.Sprint(g.got(g.a, 2))
	if at0 != at2 || (at0 != "[orphan survivor]" && at0 != "[survivor orphan]") {
		t.Fatalf("site 0 a-delivered %s, site 2 %s", at0, at2)
	}
}

// TestRBcastStillRelays: in the same shape, a plain reliable broadcast
// reaches site 0 only through site 2's relay.
func TestRBcastStillRelays(t *testing.T) {
	g := newOriginCrashGroup(t)
	if err := g.sites[1].RBcast([]byte("orphan")); err != nil {
		t.Fatal(err)
	}
	g.sim.Crash(1)
	waitUntil(t, "both survivors to r-deliver the cast", func() bool {
		return len(g.got(g.r, 0)) == 1 && len(g.got(g.r, 2)) == 1
	})
	if at0, at2 := fmt.Sprint(g.got(g.r, 0)), fmt.Sprint(g.got(g.r, 2)); at0 != "[orphan]" || at2 != "[orphan]" {
		t.Fatalf("site 0 r-delivered %s, site 2 %s", at0, at2)
	}
}

// TestOneWayCutStaysLive: every datagram from site 1 to site 0 is lost,
// and site 1 is the only one casting. Site 0 never holds a cast of its
// own, so it coordinates instances 0, 3, … only with proposals solicited
// from site 2, and it hears the decisions site 1 coordinates only through
// site 2's relay. Both start once site 0 suspects site 1.
func TestOneWayCutStaysLive(t *testing.T) {
	sim := simnet.New(simnet.Config{Nodes: 3})
	t.Cleanup(sim.Close)
	var mu sync.Mutex
	got := make(map[transport.NodeID][]string)
	net := tapNet{Transport: sim, drop: func(from, to transport.NodeID) bool {
		return from == 1 && to == 0
	}}
	sites, _ := startSites(t, net, 3, func(id transport.NodeID, cfg *Config) {
		cfg.FDInterval = 10 * time.Millisecond
		cfg.SuspectAfter = 60 * time.Millisecond
		cfg.Deliver = func(_ transport.NodeID, data []byte) {
			mu.Lock()
			got[id] = append(got[id], string(data))
			mu.Unlock()
		}
	})
	const n = 6
	for i := 0; i < n; i++ {
		if err := sites[1].ABcast([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	at := func(id transport.NodeID) []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got[id]...)
	}
	waitUntil(t, "every site to a-deliver all six casts", func() bool {
		return len(at(0)) == n && len(at(1)) == n && len(at(2)) == n
	})
	if a0, a1, a2 := fmt.Sprint(at(0)), fmt.Sprint(at(1)), fmt.Sprint(at(2)); a0 != a1 || a1 != a2 {
		t.Fatalf("orders differ: site 0 %s, site 1 %s, site 2 %s", a0, a1, a2)
	}
}

// TestJoinerCoordinatesPreJoinCasts: with one cast per batch, four casts
// fill instances 0–3, so site 0 coordinates instance 4 in the view
// {0,1}. It casts the join of site 2 — proposing it for instance 4 at once
// from its own pool — and then x, which waits for instance 5, coordinated
// by site 2 in the view {0,1,2}. x was sent before site 2 was a member, so
// site 2 cannot propose it from its own pool: the members must forward
// their proposals to the newcomer unasked, or instance 5 never starts. The
// failure detector is off, so no suspicion can help.
func TestJoinerCoordinatesPreJoinCasts(t *testing.T) {
	sim := simnet.New(simnet.Config{Nodes: 3})
	t.Cleanup(sim.Close)
	var mu sync.Mutex
	got := make(map[transport.NodeID][]string)
	sites := make([]*Site, 3)
	for id := range sites {
		view := NewView(0, 1)
		if id == 2 {
			view = NewView(0, 1, 2)
		}
		id := transport.NodeID(id)
		sites[id] = NewSite(Config{
			Net: sim, ID: id, InitialView: view, FDInterval: -1,
			Deliver: func(_ transport.NodeID, data []byte) {
				mu.Lock()
				got[id] = append(got[id], string(data))
				mu.Unlock()
			},
		})
		sites[id].ab.batchMax = 1
		sites[id].Start()
	}
	t.Cleanup(func() {
		for id, s := range sites {
			s.Stop()
			for _, err := range s.Errs() {
				t.Errorf("site %d: %v", id, err)
			}
		}
	})
	at := func(id transport.NodeID) []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got[id]...)
	}

	const before = 4
	for k := 1; k <= before; k++ {
		if err := sites[0].ABcast([]byte(fmt.Sprintf("m%d", k))); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "the cast on both members", func() bool { return len(at(0)) == k && len(at(1)) == k })
	}
	if err := sites[0].Join(2); err != nil {
		t.Fatal(err)
	}
	if err := sites[0].ABcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "x on every site", func() bool {
		return len(at(0)) == before+1 && len(at(1)) == before+1 && len(at(2)) == 1
	})
	if a2 := fmt.Sprint(at(2)); a2 != "[x]" {
		t.Fatalf("joiner a-delivered %s, want [x]", a2)
	}
}
