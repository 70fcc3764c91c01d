package gc

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestStateBounded: consensus forgets every instance all members have
// decided, and ABcast keeps no record of a delivered cast once RelCast has
// brought it, so after 2,000 ABcasts each site holds a handful of
// instances and message IDs. Pruning waits for every member's watermark:
// it stops while a crashed member stays in the view and resumes once a
// Leave removes it.
func TestStateBounded(t *testing.T) {
	const bound = 16
	sim := simnet.New(simnet.Config{Nodes: 3})
	t.Cleanup(sim.Close)

	// A delivery whose payload starts with "probe" records the site's
	// state sizes. It runs inside the computation that delivers, nested
	// in ABcast's and Consensus's handlers, so reading their state here
	// is isolated like the handlers themselves.
	var (
		mu     sync.Mutex
		sites  []*Site
		insts  = make(map[transport.NodeID]int)
		ids    = make(map[transport.NodeID]int)
		counts = make(map[transport.NodeID]int)
	)
	sites, _ = startSites(t, sim, 3, func(id transport.NodeID, cfg *Config) {
		cfg.FDInterval = 10 * time.Millisecond
		cfg.SuspectAfter = 60 * time.Millisecond
		cfg.Deliver = func(_ transport.NodeID, data []byte) {
			mu.Lock()
			defer mu.Unlock()
			counts[id]++
			if strings.HasPrefix(string(data), "probe") {
				s := sites[id]
				insts[id] = len(s.cons.insts)
				ids[id] = len(s.ab.pool) + len(s.ab.early)
			}
		}
	})
	delivered := func(id transport.NodeID) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[id]
	}
	sizes := func(id transport.NodeID) (int, int) {
		mu.Lock()
		defer mu.Unlock()
		return insts[id], ids[id]
	}
	// await waits until every listed site delivered total messages.
	total := 0
	await := func(what string, members ...transport.NodeID) {
		t.Helper()
		waitUntil(t, what, func() bool {
			for _, id := range members {
				if delivered(id) < total {
					return false
				}
			}
			return true
		})
	}
	// probe casts one probe from site `from` and awaits it.
	probe := func(from transport.NodeID, tag string, members ...transport.NodeID) {
		t.Helper()
		if err := sites[from].ABcast([]byte("probe " + tag)); err != nil {
			t.Fatal(err)
		}
		total++
		await(tag+" delivered", members...)
	}

	const casts = 2000
	for k := 0; k < casts; k++ {
		if err := sites[k%3].ABcast([]byte(fmt.Sprintf("op%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	total = casts
	await("the burst delivered", 0, 1, 2)
	probe(0, "after the burst", 0, 1, 2)
	for id := transport.NodeID(0); id < 3; id++ {
		n, m := sizes(id)
		t.Logf("site %d after %d casts: %d instances, %d message IDs", id, casts, n, m)
		if n > bound || m > bound {
			t.Errorf("site %d holds %d instances and %d message IDs after %d casts, want at most %d each", id, n, m, casts, bound)
		}
	}

	// Crash site 2: it stays in the view, its watermark stays put, and
	// the survivors' instances pile up.
	sites[2].Stop()
	const whileDown = 3 * bound
	for k := 0; k < whileDown; k++ {
		probe(transport.NodeID(k%2), fmt.Sprintf("down %d", k), 0, 1)
	}
	for id := transport.NodeID(0); id < 2; id++ {
		n, _ := sizes(id)
		t.Logf("site %d with site 2 crashed: %d instances", id, n)
		if n <= bound {
			t.Errorf("site %d holds %d instances with a crashed member in the view, want pruning stopped", id, n)
		}
	}

	if err := sites[0].Leave(2); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the survivors to remove site 2", func() bool {
		return !sites[0].View().Contains(2) && !sites[1].View().Contains(2)
	})
	probe(1, "after the leave", 0, 1)
	for id := transport.NodeID(0); id < 2; id++ {
		n, m := sizes(id)
		t.Logf("site %d after the leave: %d instances, %d message IDs", id, n, m)
		if n > bound || m > bound {
			t.Errorf("site %d holds %d instances and %d message IDs after the leave, want at most %d each", id, n, m, bound)
		}
	}
}
