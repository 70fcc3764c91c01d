// Command groupcomm runs the paper's §3 group-communication system end to
// end on a simulated network: three sites atomically broadcast messages,
// a fourth site joins mid-stream via the Membership microprotocol, and a
// site crashes — exercising RelComm, RelCast, the failure detector,
// consensus, ABcast, and Membership, all scheduled by VCAbasic.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/gc"
	"repro/internal/simnet"
	"repro/internal/transport/faultnet"
)

func main() {
	if !run() {
		os.Exit(1)
	}
}

// run plays the scenario and reports whether the surviving established
// sites agree on the total order and no site recorded an error.
func run() bool {
	net := faultnet.New(faultnet.Config{
		Inner: simnet.New(simnet.Config{Nodes: 4}),
		Seed:  2026,
		Rates: faultnet.Rates{
			Drop:  0.05, // retransmission earns its keep
			Delay: 1, DelayMin: 200 * time.Microsecond, DelayMax: 2 * time.Millisecond,
		},
	})
	defer net.Close()

	var mu sync.Mutex
	delivered := map[simnet.NodeID][]string{}
	reliable := map[simnet.NodeID][]string{}
	views := map[simnet.NodeID][]string{}

	mkSite := func(id simnet.NodeID, view *gc.View) *gc.Site {
		s := gc.NewSite(gc.Config{
			Net: net, ID: id, InitialView: view,
			RTO:        10 * time.Millisecond,
			FDInterval: 10 * time.Millisecond,
			Deliver: func(from simnet.NodeID, data []byte) {
				mu.Lock()
				delivered[id] = append(delivered[id], string(data))
				mu.Unlock()
			},
			RDeliver: func(from simnet.NodeID, data []byte) {
				mu.Lock()
				reliable[id] = append(reliable[id], string(data))
				mu.Unlock()
			},
			OnViewChange: func(v *gc.View) {
				mu.Lock()
				views[id] = append(views[id], v.String())
				mu.Unlock()
			},
		})
		s.Start()
		return s
	}

	initial := gc.NewView(0, 1, 2)
	sites := map[simnet.NodeID]*gc.Site{}
	for id := simnet.NodeID(0); id < 3; id++ {
		sites[id] = mkSite(id, initial)
	}

	fmt.Println("phase 1: three sites broadcast concurrently")
	var wg sync.WaitGroup
	for id := simnet.NodeID(0); id < 3; id++ {
		wg.Add(1)
		go func(id simnet.NodeID) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				must(sites[id].ABcast([]byte(fmt.Sprintf("s%d/m%d", id, i))))
			}
		}(id)
	}
	wg.Wait()
	waitFor(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered[0]) >= 9 && len(delivered[1]) >= 9 && len(delivered[2]) >= 9
	}, "phase-1 deliveries")

	fmt.Println("phase 2: site 3 joins (Membership → ABcast → consensus)")
	sites[3] = mkSite(3, gc.NewView(0, 1, 2, 3))
	must(sites[0].Join(3))
	waitFor(func() bool {
		return sites[0].View().Contains(3) && sites[1].View().Contains(3) && sites[2].View().Contains(3)
	}, "view {0,1,2,3} everywhere")

	fmt.Println("phase 3: broadcasts now reach the new member")
	must(sites[1].ABcast([]byte("post-join")))
	waitFor(func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range delivered[3] {
			if m == "post-join" {
				return true
			}
		}
		return false
	}, "joiner delivery")

	fmt.Println("phase 3b: reliable broadcasts (no ordering, no consensus) from site 2")
	for i := 0; i < 3; i++ {
		must(sites[2].RBcast([]byte(fmt.Sprintf("rb/%d", i))))
	}
	waitFor(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(reliable[0]) >= 3 && len(reliable[1]) >= 3 && len(reliable[3]) >= 3
	}, "reliable deliveries")

	fmt.Println("phase 4: site 0 crashes; the group keeps delivering")
	net.Crash(0)
	must(sites[2].ABcast([]byte("after-crash")))
	waitFor(func() bool {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, id := range []simnet.NodeID{1, 2, 3} {
			for _, m := range delivered[id] {
				if m == "after-crash" {
					n++
				}
			}
		}
		return n == 3
	}, "post-crash deliveries")

	mu.Lock()
	fmt.Println("\nresults:")
	for id := simnet.NodeID(0); id < 4; id++ {
		fmt.Printf("  site %d delivered %2d total-order + %d reliable messages; views seen: %v\n",
			id, len(delivered[id]), len(reliable[id]), views[id])
	}
	// Total order check across the survivors' common prefix.
	ref := delivered[1]
	agree := true
	for _, id := range []simnet.NodeID{2} {
		got := delivered[id]
		n := min(len(ref), len(got))
		for i := 0; i < n; i++ {
			if ref[i] != got[i] {
				agree = false
			}
		}
	}
	mu.Unlock()
	fmt.Printf("  total order across surviving established sites: %v\n", agree)

	st := net.Stats()
	fmt.Printf("\nnetwork: %d sent, %d delivered, %d lost (%.1f%%), %d to/from crashed\n",
		st.Sent, st.Delivered, st.DroppedLoss,
		100*float64(st.DroppedLoss)/float64(st.Sent), st.DroppedCrashed)

	ok := agree
	for id, s := range sites {
		s.Stop()
		for _, err := range s.Errs() {
			fmt.Printf("site %d error: %v\n", id, err)
			ok = false
		}
	}
	return ok
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func waitFor(cond func() bool, what string) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	panic("timeout waiting for " + what)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
