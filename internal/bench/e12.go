package bench

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/gc"
	"repro/internal/kvstore"
	"repro/internal/transport"
	"repro/internal/transport/udpnet"
)

// E12KVOverUDP measures the replicated key-value store over real
// loopback UDP sockets — the deployment substrate of cmd/samoa-node —
// instead of simnet. Three replicas, each on its own udpnet transport
// (the N-process shape from udpnet.NewCluster), concurrent writers
// spread across all replicas; every Put waits for its own replicated
// apply, so ops/s is end-to-end total-order throughput through the
// kernel's UDP stack, and applies/s counts the cluster-wide state-
// machine applies it fans out into. "datagrams" is the cluster-wide
// socket-level send count, retransmissions included.
func E12KVOverUDP(writers, perWriter int) *Table {
	t := &Table{
		ID:     "E12",
		Title:  fmt.Sprintf("replicated kvstore over loopback UDP (3 sites, %d writers × %d puts)", writers, perWriter),
		Header: []string{"controller", "ops", "time", "ops/s", "applies/s", "datagrams"},
	}
	if c, err := net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
		t.Note(fmt.Sprintf("SKIPPED: loopback UDP unavailable: %v", err))
		return t
	} else {
		c.Close()
	}

	const sites = 3
	for _, v := range []string{"serial", "vca-basic", "vca-route"} {
		variant, ok := variantByName(v)
		if !ok {
			panic("E12: unknown variant " + v)
		}
		nets, err := udpnet.NewCluster(sites)
		if err != nil {
			panic(fmt.Sprintf("E12 %s: %v", v, err))
		}
		ids := make([]transport.NodeID, sites)
		for i := range ids {
			ids[i] = transport.NodeID(i)
		}
		view := gc.NewView(ids...)
		stores := make([]*kvstore.Store, sites)
		for i := range stores {
			stores[i] = kvstore.New(kvstore.Config{
				Net: nets[i], ID: transport.NodeID(i), InitialView: view,
				OpTimeout: 30 * time.Second,
				Site: gc.Config{
					Controller: variant.New(),
					FDInterval: -1, // benign run: no failure-detector noise
					RTO:        100 * time.Millisecond,
				},
			})
			stores[i].Start()
		}

		start := time.Now()
		var wg sync.WaitGroup
		werrs := make([]error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := stores[w%sites]
				for k := 0; k < perWriter; k++ {
					if err := s.Put(fmt.Sprintf("w%d-k%d", w, k), fmt.Sprint(k)); err != nil {
						werrs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)

		var datagrams uint64
		for _, n := range nets {
			datagrams += n.Stats().Sent
		}
		for i, s := range stores {
			s.Stop()
			for _, err := range s.Errs() {
				panic(fmt.Sprintf("E12 %s replica %d: %v", v, i, err))
			}
		}
		for _, n := range nets {
			n.Close()
		}
		for w, err := range werrs {
			if err != nil {
				panic(fmt.Sprintf("E12 %s writer %d: %v", v, w, err))
			}
		}

		ops := writers * perWriter
		t.AddRow(v, fmt.Sprint(ops), elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(ops)/elapsed.Seconds()),
			fmt.Sprintf("%.0f", float64(ops*sites)/elapsed.Seconds()),
			fmt.Sprint(datagrams))
	}
	t.Note("same stack as E4 but through real kernel sockets (udpnet) instead of simnet;")
	t.Note("every Put blocks on its replicated apply, so ops/s is end-to-end consensus +")
	t.Note("ABcast latency over loopback UDP — compare cmd/samoa-node's 3-process deployment")
	return t
}

// variantByName looks up a controller variant by its table name.
func variantByName(name string) (Variant, bool) {
	for _, v := range Variants() {
		if v.Name == name {
			return v, true
		}
	}
	return Variant{}, false
}
