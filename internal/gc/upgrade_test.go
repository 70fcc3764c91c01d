package gc_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/gc"
	"repro/internal/simnet"
)

// TestLiveUpgradeMidTraffic drives the zero-downtime upgrade path end to
// end: a 3-site cluster under concurrent ABcast traffic receives a '^'
// protocol bump through the total order; every member swaps its app
// microprotocol (one configuration epoch per site) without dropping or
// reordering a single delivery, and the group converges on the new
// version. A second, stale proposal must be delivered and ignored.
func TestLiveUpgradeMidTraffic(t *testing.T) {
	c := newCluster(t, 3, 23, latency(50*time.Microsecond, 500*time.Microsecond))
	view := gc.NewView(0, 1, 2)
	for id := simnet.NodeID(0); id < 3; id++ {
		c.addSite(id, view, nil)
	}

	const perSite = 8
	var wg sync.WaitGroup
	for id := simnet.NodeID(0); id < 3; id++ {
		wg.Add(1)
		go func(id simnet.NodeID) {
			defer wg.Done()
			for i := 0; i < perSite; i++ {
				if err := c.sites[id].ABcast([]byte(fmt.Sprintf("s%d-m%d", id, i))); err != nil {
					t.Error(err)
				}
				if id == 0 && i == perSite/2 {
					if err := c.sites[id].ProposeUpgrade(2); err != nil {
						t.Error(err)
					}
				}
			}
		}(id)
	}
	wg.Wait()

	for id := simnet.NodeID(0); id < 3; id++ {
		id := id
		c.waitFor(30*time.Second, fmt.Sprintf("site %d to reach app v2", id), func() bool {
			return c.sites[id].AppVersion() == 2
		})
		if got := c.sites[id].Epoch(); got != 2 {
			t.Errorf("site %d: epoch %d after one upgrade, want 2", id, got)
		}
		if got := c.sites[id].View().Proto(); got != 2 {
			t.Errorf("site %d: view proto %d, want 2", id, got)
		}
	}

	// No acked broadcast was lost or reordered across the swap: the
	// post-upgrade app incarnation delivers the same total order.
	total := 3 * perSite
	for id := simnet.NodeID(0); id < 3; id++ {
		c.waitDeliveredAt(id, total)
	}
	ref := c.adeliveries(0)
	if len(ref) != total {
		t.Fatalf("site 0 delivered %d, want %d", len(ref), total)
	}
	seen := map[string]bool{}
	for _, m := range ref {
		if seen[m] {
			t.Fatalf("duplicate delivery %q", m)
		}
		seen[m] = true
	}
	for id := simnet.NodeID(1); id < 3; id++ {
		got := c.adeliveries(id)
		if len(got) != total {
			t.Fatalf("site %d delivered %d, want %d", id, len(got), total)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("total order violated at %d across the upgrade: site %d has %v, site 0 has %v", i, id, got, ref)
			}
		}
	}

	// A stale re-proposal is ordered, delivered, and ignored: no second
	// swap. A real bump advances the epoch again.
	if err := c.sites[1].ProposeUpgrade(2); err != nil {
		t.Fatal(err)
	}
	if err := c.sites[2].ProposeUpgrade(3); err != nil {
		t.Fatal(err)
	}
	for id := simnet.NodeID(0); id < 3; id++ {
		id := id
		c.waitFor(30*time.Second, fmt.Sprintf("site %d to reach app v3", id), func() bool {
			return c.sites[id].AppVersion() == 3
		})
		if got := c.sites[id].Epoch(); got != 3 {
			t.Errorf("site %d: epoch %d after two applied upgrades, want 3", id, got)
		}
	}

	// Traffic keeps flowing on the upgraded stack.
	if err := c.sites[0].ABcast([]byte("post-upgrade")); err != nil {
		t.Fatal(err)
	}
	for id := simnet.NodeID(0); id < 3; id++ {
		c.waitDeliveredAt(id, total+1)
	}
}
