// Command kvstore runs a replicated key-value store — state-machine
// replication on top of the whole reproduction: SAMOA-scheduled
// microprotocols, reliable broadcast, consensus, atomic broadcast.
//
// Three replicas race compare-and-swap operations on one counter; because
// every operation rides the total order, every increment is applied
// exactly once on every replica, with no locks anywhere in the
// application: the counter ends exactly at the number of increments.
package main

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/gc"
	"repro/internal/kvstore"
	"repro/internal/simnet"
	"repro/internal/transport/faultnet"
)

func main() {
	if !run() {
		os.Exit(1)
	}
}

// run plays the scenario and reports whether every replica ended at the
// expected counter.
func run() bool {
	net := faultnet.New(faultnet.Config{
		Inner: simnet.New(simnet.Config{Nodes: 3}),
		Seed:  2026,
		Rates: faultnet.Rates{Drop: 0.03, Delay: 1, DelayMin: 100 * time.Microsecond, DelayMax: 1500 * time.Microsecond},
	})
	defer net.Close()

	view := gc.NewView(0, 1, 2)
	stores := make([]*kvstore.Store, 3)
	for i := range stores {
		stores[i] = kvstore.New(kvstore.Config{
			Net: net, ID: simnet.NodeID(i), InitialView: view,
			Site: gc.Config{FDInterval: -1, RTO: 15 * time.Millisecond},
		})
		stores[i].Start()
		defer stores[i].Stop()
	}

	must(stores[0].Put("counter", "0"))

	const perReplica = 10
	fmt.Printf("3 replicas, %d CAS-increments each, over a lossy reordering network…\n", perReplica)
	start := time.Now()
	var wg sync.WaitGroup
	retries := make([]int, 3)
	for i, s := range stores {
		wg.Add(1)
		go func(i int, s *kvstore.Store) {
			defer wg.Done()
			for n := 0; n < perReplica; n++ {
				for { // optimistic CAS loop
					cur, _ := s.Get("counter")
					v, _ := strconv.Atoi(cur)
					ok, err := s.CAS("counter", cur, strconv.Itoa(v+1))
					if err != nil {
						panic(err)
					}
					if ok {
						break
					}
					retries[i]++
				}
			}
		}(i, s)
	}
	wg.Wait()

	// Let the last applies reach every replica.
	deadline := time.Now().Add(10 * time.Second)
	converged := false
	for {
		a, _ := stores[0].Get("counter")
		b, _ := stores[1].Get("counter")
		c, _ := stores[2].Get("counter")
		if a == b && b == c && a == strconv.Itoa(3*perReplica) {
			fmt.Printf("\nconverged in %v: counter = %s on every replica (want %d) ✓\n",
				time.Since(start).Round(time.Millisecond), a, 3*perReplica)
			converged = true
			break
		}
		if time.Now().After(deadline) {
			fmt.Printf("\nDIVERGED: %s / %s / %s\n", a, b, c)
			break
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("CAS retries per replica (lost races resolved by the total order): %v\n", retries)
	st := net.Stats()
	fmt.Printf("network: %d datagrams, %d lost and repaired by RelComm\n", st.Sent, st.DroppedLoss)
	return converged
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
