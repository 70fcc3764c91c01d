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
