package gc_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/simnet"
	"repro/internal/transport/faultnet"
)

// cluster is a test harness owning a faultnet-wrapped simnet and a set of
// sites, recording every delivery and view installation per site.
type cluster struct {
	t     *testing.T
	net   *faultnet.Net
	sites map[simnet.NodeID]*gc.Site

	mu     sync.Mutex
	adeliv map[simnet.NodeID][]string
	rdeliv map[simnet.NodeID][]string
	views  map[simnet.NodeID][]string
}

// latency is the link model most cluster tests run on: every datagram
// held for a uniform [lo, hi], so later traffic overtakes it.
func latency(lo, hi time.Duration) faultnet.Rates {
	return faultnet.Rates{Delay: 1, DelayMin: lo, DelayMax: hi}
}

// newCluster builds a cluster of nodes whose traffic suffers r, seeded by
// seed.
func newCluster(t *testing.T, nodes int, seed int64, r faultnet.Rates) *cluster {
	t.Helper()
	c := &cluster{
		t:      t,
		net:    faultnet.New(faultnet.Config{Inner: simnet.New(simnet.Config{Nodes: nodes}), Seed: seed, Rates: r}),
		sites:  make(map[simnet.NodeID]*gc.Site),
		adeliv: make(map[simnet.NodeID][]string),
		rdeliv: make(map[simnet.NodeID][]string),
		views:  make(map[simnet.NodeID][]string),
	}
	t.Cleanup(func() {
		for _, s := range c.sites {
			s.Stop()
		}
		c.net.Close()
		for id, s := range c.sites {
			for _, err := range s.Errs() {
				t.Errorf("site %d: %v", id, err)
			}
		}
	})
	return c
}

// addSite creates and starts a site delivering into the cluster's logs.
func (c *cluster) addSite(id simnet.NodeID, view *gc.View, mutate func(*gc.Config)) *gc.Site {
	c.t.Helper()
	cfg := gc.Config{
		Net:         c.net,
		ID:          id,
		InitialView: view,
		FDInterval:  -1, // most tests are crash-free; crash tests override
		Deliver: func(from simnet.NodeID, data []byte) {
			c.mu.Lock()
			c.adeliv[id] = append(c.adeliv[id], string(data))
			c.mu.Unlock()
		},
		RDeliver: func(from simnet.NodeID, data []byte) {
			c.mu.Lock()
			c.rdeliv[id] = append(c.rdeliv[id], string(data))
			c.mu.Unlock()
		},
		OnViewChange: func(v *gc.View) {
			c.mu.Lock()
			c.views[id] = append(c.views[id], v.String())
			c.mu.Unlock()
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := gc.NewSite(cfg)
	c.sites[id] = s
	s.Start()
	return s
}

func (c *cluster) adeliveries(id simnet.NodeID) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.adeliv[id]...)
}

func (c *cluster) rdeliveries(id simnet.NodeID) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.rdeliv[id]...)
}

// waitFor polls cond until it holds or the deadline passes.
func (c *cluster) waitFor(timeout time.Duration, what string, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatalf("timeout waiting for %s", what)
}

func (c *cluster) waitDeliveredAt(id simnet.NodeID, n int) {
	c.t.Helper()
	// Generous deadline: the full suite under -race on a loaded 1-CPU
	// box slows consensus rounds considerably.
	c.waitFor(30*time.Second, fmt.Sprintf("site %d to deliver %d messages", id, n), func() bool {
		return len(c.adeliveries(id)) >= n
	})
}

func TestSingleSiteABcast(t *testing.T) {
	c := newCluster(t, 1, 0, faultnet.Rates{})
	s := c.addSite(0, gc.NewView(0), nil)
	for i := 0; i < 5; i++ {
		if err := s.ABcast([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.waitDeliveredAt(0, 5)
	// Atomic broadcast promises a total order, not sender-FIFO: assert
	// exactly-once delivery of the full set.
	got := c.adeliveries(0)
	if len(got) != 5 {
		t.Fatalf("delivered %v", got)
	}
	seen := map[string]bool{}
	for _, m := range got {
		seen[m] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[fmt.Sprintf("m%d", i)] {
			t.Fatalf("missing m%d in %v", i, got)
		}
	}
}

func TestThreeSitesTotalOrder(t *testing.T) {
	c := newCluster(t, 3, 11, latency(50*time.Microsecond, 500*time.Microsecond))
	view := gc.NewView(0, 1, 2)
	for id := simnet.NodeID(0); id < 3; id++ {
		c.addSite(id, view, nil)
	}
	const perSite = 5
	var wg sync.WaitGroup
	for id := simnet.NodeID(0); id < 3; id++ {
		wg.Add(1)
		go func(id simnet.NodeID) {
			defer wg.Done()
			for i := 0; i < perSite; i++ {
				if err := c.sites[id].ABcast([]byte(fmt.Sprintf("s%d-m%d", id, i))); err != nil {
					t.Error(err)
				}
			}
		}(id)
	}
	wg.Wait()
	total := 3 * perSite
	for id := simnet.NodeID(0); id < 3; id++ {
		c.waitDeliveredAt(id, total)
	}
	// Total order: every site delivered the same sequence.
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
				t.Fatalf("total order violated at %d: site %d has %v, site 0 has %v", i, id, got, ref)
			}
		}
	}
}

func TestRBcastReachesAll(t *testing.T) {
	c := newCluster(t, 3, 5, latency(50*time.Microsecond, 300*time.Microsecond))
	view := gc.NewView(0, 1, 2)
	for id := simnet.NodeID(0); id < 3; id++ {
		c.addSite(id, view, nil)
	}
	for i := 0; i < 3; i++ {
		if err := c.sites[0].RBcast([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for id := simnet.NodeID(0); id < 3; id++ {
		c.waitFor(10*time.Second, "rdeliveries", func() bool { return len(c.rdeliveries(id)) >= 3 })
	}
}

func TestLossyNetworkStillDelivers(t *testing.T) {
	c := newCluster(t, 3, 99, faultnet.Rates{
		Drop: 0.2, Delay: 1, DelayMin: 100 * time.Microsecond, DelayMax: 2 * time.Millisecond,
	})
	view := gc.NewView(0, 1, 2)
	for id := simnet.NodeID(0); id < 3; id++ {
		c.addSite(id, view, func(cfg *gc.Config) {
			cfg.RTO = 20 * time.Millisecond
		})
	}
	for i := 0; i < 5; i++ {
		if err := c.sites[simnet.NodeID(i%3)].ABcast([]byte(fmt.Sprintf("lossy%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for id := simnet.NodeID(0); id < 3; id++ {
		c.waitDeliveredAt(id, 5)
	}
	ref := c.adeliveries(0)[:5]
	for id := simnet.NodeID(1); id < 3; id++ {
		got := c.adeliveries(id)[:5]
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("order differs under loss: %v vs %v", got, ref)
			}
		}
	}
}

func TestJoinAddsSiteAndSyncs(t *testing.T) {
	c := newCluster(t, 3, 21, latency(50*time.Microsecond, 300*time.Microsecond))
	established := gc.NewView(0, 1)
	c.addSite(0, established, nil)
	c.addSite(1, established, nil)

	// Some pre-join history the joiner must not need.
	if err := c.sites[0].ABcast([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	c.waitDeliveredAt(0, 1)
	c.waitDeliveredAt(1, 1)

	// The joiner knows the view it is joining into.
	c.addSite(2, gc.NewView(0, 1, 2), nil)
	if err := c.sites[0].Join(2); err != nil {
		t.Fatal(err)
	}
	c.waitFor(10*time.Second, "established sites to install {0,1,2}", func() bool {
		return c.sites[0].View().Contains(2) && c.sites[1].View().Contains(2)
	})

	// Post-join broadcasts reach the new member.
	if err := c.sites[1].ABcast([]byte("post")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(10*time.Second, "joiner to deliver post-join message", func() bool {
		for _, m := range c.adeliveries(2) {
			if m == "post" {
				return true
			}
		}
		return false
	})
	// The joiner must not have delivered pre-join history.
	for _, m := range c.adeliveries(2) {
		if m == "pre" {
			t.Fatal("joiner delivered pre-join history")
		}
	}
}

func TestLeaveShrinksView(t *testing.T) {
	c := newCluster(t, 3, 31, latency(50*time.Microsecond, 300*time.Microsecond))
	view := gc.NewView(0, 1, 2)
	for id := simnet.NodeID(0); id < 3; id++ {
		c.addSite(id, view, nil)
	}
	if err := c.sites[0].Leave(2); err != nil {
		t.Fatal(err)
	}
	c.waitFor(10*time.Second, "views to shrink", func() bool {
		return !c.sites[0].View().Contains(2) && !c.sites[1].View().Contains(2)
	})
	if err := c.sites[0].ABcast([]byte("after-leave")); err != nil {
		t.Fatal(err)
	}
	c.waitFor(10*time.Second, "remaining members to deliver", func() bool {
		a0, a1 := c.adeliveries(0), c.adeliveries(1)
		return contains(a0, "after-leave") && contains(a1, "after-leave")
	})
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestCrashedCoordinatorRoundAdvance: instance 0's round-0 coordinator is
// site 0; crashing it forces the failure detector + round advance path.
func TestCrashedCoordinatorRoundAdvance(t *testing.T) {
	c := newCluster(t, 3, 41, latency(50*time.Microsecond, 300*time.Microsecond))
	view := gc.NewView(0, 1, 2)
	for id := simnet.NodeID(0); id < 3; id++ {
		c.addSite(id, view, func(cfg *gc.Config) {
			cfg.FDInterval = 10 * time.Millisecond
			cfg.SuspectAfter = 60 * time.Millisecond
		})
	}
	c.net.Crash(0)
	if err := c.sites[1].ABcast([]byte("survivor")); err != nil {
		t.Fatal(err)
	}
	c.waitDeliveredAt(1, 1)
	c.waitDeliveredAt(2, 1)
	if got := c.adeliveries(1); got[0] != "survivor" {
		t.Fatalf("delivered %v", got)
	}
}

// TestAllControllerSpecCombos drives the full stack under every
// (controller, spec kind) combination the framework supports — the
// integration proof that each isolated variant can run a real protocol.
func TestAllControllerSpecCombos(t *testing.T) {
	combos := []struct {
		name string
		mk   func() core.Controller
		kind core.SpecKind
	}{
		{"vca-basic", func() core.Controller { return cc.NewVCABasic() }, core.SpecBasic},
		{"vca-bound", func() core.Controller { return cc.NewVCABound() }, core.SpecBound},
		{"vca-route", func() core.Controller { return cc.NewVCARoute() }, core.SpecRoute},
		{"serial", func() core.Controller { return cc.NewSerial() }, core.SpecBasic},
		{"tso", func() core.Controller { return cc.NewTSO() }, core.SpecBasic},
		{"vca-rw", func() core.Controller { return cc.NewVCARW() }, core.SpecBasic},
	}
	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			c := newCluster(t, 2, 51, latency(50*time.Microsecond, 200*time.Microsecond))
			view := gc.NewView(0, 1)
			for id := simnet.NodeID(0); id < 2; id++ {
				c.addSite(id, view, func(cfg *gc.Config) {
					cfg.Controller = combo.mk()
					cfg.SpecKind = combo.kind
				})
			}
			for i := 0; i < 4; i++ {
				if err := c.sites[simnet.NodeID(i%2)].ABcast([]byte(fmt.Sprintf("c%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			c.waitDeliveredAt(0, 4)
			c.waitDeliveredAt(1, 4)
			ref, got := c.adeliveries(0), c.adeliveries(1)
			for i := range ref[:4] {
				if ref[i] != got[i] {
					t.Fatalf("order differs: %v vs %v", ref, got)
				}
			}
		})
	}
}
