package gc_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/gc"
	"repro/internal/simnet"
	"repro/internal/transport/faultnet"
)

// TestMembershipChurn runs a sequence of joins and leaves interleaved
// with broadcasts: all established sites must install the same view
// sequence (views ride the total order) and keep delivering throughout.
func TestMembershipChurn(t *testing.T) {
	c := newCluster(t, 5, 101, latency(50*time.Microsecond, 400*time.Microsecond))
	established := gc.NewView(0, 1)
	c.addSite(0, established, nil)
	c.addSite(1, established, nil)

	// send broadcasts and waits until every listed member delivered it.
	// The quiescence matters for the pre-join-history assertion below: a
	// frame still in flight during a join may legitimately straggle to
	// the joiner via rebroadcast (this stack is not view-synchronous);
	// once every member has seen a message, no one will rebroadcast it
	// into the new view.
	send := func(from simnet.NodeID, tag string, members ...simnet.NodeID) {
		t.Helper()
		if err := c.sites[from].ABcast([]byte(tag)); err != nil {
			t.Fatal(err)
		}
		c.waitFor(10*time.Second, tag+" delivered", func() bool {
			for _, id := range members {
				if !contains(c.adeliveries(id), tag) {
					return false
				}
			}
			return true
		})
	}
	waitView := func(pred func(*gc.View) bool, what string, ids ...simnet.NodeID) {
		t.Helper()
		c.waitFor(10*time.Second, what, func() bool {
			for _, id := range ids {
				if !pred(c.sites[id].View()) {
					return false
				}
			}
			return true
		})
	}

	send(0, "phase0", 0, 1)

	// Join 2, then 3 — each joiner already knows its view.
	c.addSite(2, gc.NewView(0, 1, 2), nil)
	if err := c.sites[0].Join(2); err != nil {
		t.Fatal(err)
	}
	waitView(func(v *gc.View) bool { return v.Contains(2) }, "view +2", 0, 1)
	send(1, "phase1", 0, 1, 2)

	c.addSite(3, gc.NewView(0, 1, 2, 3), nil)
	if err := c.sites[2].Join(3); err != nil {
		t.Fatal(err)
	}
	waitView(func(v *gc.View) bool { return v.Contains(3) }, "view +3", 0, 1, 2)
	send(2, "phase2", 0, 1, 2, 3)

	// Leave 1.
	if err := c.sites[0].Leave(1); err != nil {
		t.Fatal(err)
	}
	waitView(func(v *gc.View) bool { return !v.Contains(1) }, "view -1", 0, 2, 3)
	send(3, "phase3", 0, 2, 3)

	// Every remaining member delivers phase3; the late joiners deliver
	// the phases after their join.
	c.waitFor(10*time.Second, "phase3 at survivors", func() bool {
		for _, id := range []simnet.NodeID{0, 2, 3} {
			if !contains(c.adeliveries(id), "phase3") {
				return false
			}
		}
		return true
	})
	// Site 3 joined after phase1: it must not have pre-join history.
	for _, m := range c.adeliveries(3) {
		if m == "phase0" || m == "phase1" {
			t.Fatalf("late joiner delivered pre-join message %q", m)
		}
	}
	// View sequences: same order of view strings at 0 (all four changes)
	// and matching suffixes at late joiners.
	c.mu.Lock()
	v0 := append([]string(nil), c.views[0]...)
	v2 := append([]string(nil), c.views[2]...)
	c.mu.Unlock()
	want := []string{"{0,1,2}", "{0,1,2,3}", "{0,2,3}"}
	if len(v0) != 3 {
		t.Fatalf("site 0 views = %v", v0)
	}
	for i, w := range want {
		if v0[i] != w {
			t.Fatalf("site 0 view sequence = %v, want %v", v0, want)
		}
	}
	// Site 2's first view change observation is [+3] (it joined in [+2]).
	if len(v2) == 0 || v2[0] != "{0,1,2,3}" {
		t.Fatalf("site 2 views = %v", v2)
	}
}

// TestSoakManyMessagesUnderChurnFreeLoad pushes a few hundred messages
// through a 3-site group and checks exactly-once total order end to end.
func TestSoakManyMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	c := newCluster(t, 3, 103, faultnet.Rates{
		Drop: 0.05, Delay: 1, DelayMin: 10 * time.Microsecond, DelayMax: 150 * time.Microsecond,
	})
	view := gc.NewView(0, 1, 2)
	for id := simnet.NodeID(0); id < 3; id++ {
		c.addSite(id, view, func(cfg *gc.Config) { cfg.RTO = 15 * time.Millisecond })
	}
	const total = 240
	done := make(chan error, 3)
	for id := simnet.NodeID(0); id < 3; id++ {
		go func(id simnet.NodeID) {
			for i := 0; i < total/3; i++ {
				if err := c.sites[id].ABcast([]byte(fmt.Sprintf("s%d-%d", id, i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(id)
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for id := simnet.NodeID(0); id < 3; id++ {
		c.waitDeliveredAt(id, total)
	}
	ref := c.adeliveries(0)
	seen := map[string]bool{}
	for _, m := range ref {
		if seen[m] {
			t.Fatalf("duplicate delivery %q", m)
		}
		seen[m] = true
	}
	for id := simnet.NodeID(1); id < 3; id++ {
		got := c.adeliveries(id)
		for i := 0; i < total; i++ {
			if got[i] != ref[i] {
				t.Fatalf("total order diverged at %d", i)
			}
		}
	}
}
