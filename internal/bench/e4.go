package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/simnet"
	"repro/internal/transport/faultnet"
)

// Cluster is the E4 fixture: an n-site group-communication stack on a
// simulated network, counting total-order deliveries. It reproduces the
// paper's §7 experiment — "we have expressed in J-SAMOA the Atomic
// Broadcast protocol ... and executed it on distributed machines ... with
// a different grain of concurrent execution among computations".
type Cluster struct {
	Net    *faultnet.Net
	Sites  []*gc.Site
	nDeliv atomic.Int64
}

// kindOf maps a variant kind string to its spec kind.
func kindOf(kind string) core.SpecKind {
	switch kind {
	case "bound":
		return core.SpecBound
	case "route":
		return core.SpecRoute
	default:
		return core.SpecBasic
	}
}

// NewCluster starts n sites under the variant's controller.
func NewCluster(v Variant, n int, seed int64) *Cluster {
	c := &Cluster{}
	c.Net = faultnet.New(faultnet.Config{
		Inner: simnet.New(simnet.Config{Nodes: n}),
		Seed:  seed,
		Rates: faultnet.Rates{Delay: 1, DelayMin: 20 * time.Microsecond, DelayMax: 200 * time.Microsecond},
	})
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	view := gc.NewView(ids...)
	for i := 0; i < n; i++ {
		s := gc.NewSite(gc.Config{
			Net: c.Net, ID: simnet.NodeID(i), InitialView: view,
			Controller: v.New(), SpecKind: kindOf(v.Kind),
			FDInterval: -1, // benign run: no failure detector noise
			// Generous RTO: the run is loss-free, so any retransmission
			// is pure queueing noise that would inflate the datagram
			// counts of the slower controllers.
			RTO:     500 * time.Millisecond,
			Deliver: func(simnet.NodeID, []byte) { c.nDeliv.Add(1) },
		})
		c.Sites = append(c.Sites, s)
		s.Start()
	}
	return c
}

// Deliveries reports the total deliveries across all sites.
func (c *Cluster) Deliveries() int64 { return c.nDeliv.Load() }

// Broadcast issues msgs atomic broadcasts round-robin from all sites
// (concurrently per site) and waits until every site delivered every
// message. It returns the elapsed time.
func (c *Cluster) Broadcast(msgs int) (time.Duration, error) {
	n := len(c.Sites)
	want := c.Deliveries() + int64(msgs*n)
	payload := []byte("payload")
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, s := range c.Sites {
		wg.Add(1)
		go func(i int, s *gc.Site) {
			defer wg.Done()
			for k := 0; k < msgs/n+boolInt(i < msgs%n); k++ {
				if err := s.ABcast(payload); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.Deliveries() < want {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("timeout: delivered %d of %d", c.Deliveries(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(start), nil
}

// Stop shuts the cluster down and returns any site errors.
func (c *Cluster) Stop() []error {
	var errs []error
	for _, s := range c.Sites {
		s.Stop()
		errs = append(errs, s.Errs()...)
	}
	c.Net.Close()
	return errs
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// E4ABcast measures atomic-broadcast completion time and throughput per
// controller and group size.
func E4ABcast(sizes []int, msgs int) *Table {
	t := &Table{
		ID:     "E4",
		Title:  fmt.Sprintf("atomic broadcast on simnet (%d msgs, all-deliver-all)", msgs),
		Header: []string{"controller", "sites", "time", "msgs/s", "datagrams"},
	}
	for _, n := range sizes {
		for _, v := range PaperVariants() {
			if v.Name == "none" {
				continue // not isolating: §3 race, unsynchronised state
			}
			c := NewCluster(v, n, 77)
			elapsed, err := c.Broadcast(msgs)
			stats := c.Net.Stats()
			if errs := c.Stop(); len(errs) > 0 {
				panic(fmt.Sprintf("E4 %s/%d: %v", v.Name, n, errs[0]))
			}
			if err != nil {
				panic(fmt.Sprintf("E4 %s/%d: %v", v.Name, n, err))
			}
			t.AddRow(v.Name, fmt.Sprint(n), elapsed.Round(time.Millisecond).String(),
				fmt.Sprintf("%.0f", float64(msgs)/elapsed.Seconds()),
				fmt.Sprint(stats.Sent))
		}
	}
	t.Note("expected: all isolating controllers complete correctly; throughput comparable —")
	t.Note("the per-site specs of data datagrams span the whole stack, so per-site computations")
	t.Note("serialize similarly; acks/beats use narrow specs and overlap (paper §7: overhead is low)")
	return t
}
