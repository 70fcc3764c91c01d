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
	"repro/internal/trace"
	"repro/internal/transport/faultnet"
)

// TestStackExecutionSatisfiesIsolation is the repository's strongest
// end-to-end check: record every handler execution of real group-
// communication traffic (broadcasts, consensus, acks, timers) per site,
// and verify with the conflict-graph checker that each site's execution
// satisfies the isolation property — the paper's core guarantee, measured
// on the paper's own example system rather than a synthetic workload.
func TestStackExecutionSatisfiesIsolation(t *testing.T) {
	combos := []struct {
		name string
		mk   func() core.Controller
		kind core.SpecKind
	}{
		{"vca-basic", func() core.Controller { return cc.NewVCABasic() }, core.SpecBasic},
		{"vca-bound", func() core.Controller { return cc.NewVCABound() }, core.SpecBound},
		{"vca-route", func() core.Controller { return cc.NewVCARoute() }, core.SpecRoute},
	}
	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			net := faultnet.New(faultnet.Config{
				Inner: simnet.New(simnet.Config{Nodes: 3}), Seed: 90,
				Rates: latency(50*time.Microsecond, 400*time.Microsecond),
			})
			defer net.Close()
			view := gc.NewView(0, 1, 2)
			recs := make([]*trace.Recorder, 3)
			sites := make([]*gc.Site, 3)
			var delivered sync.WaitGroup
			delivered.Add(3 * 6)
			for i := 0; i < 3; i++ {
				recs[i] = trace.NewRecorder()
				sites[i] = gc.NewSite(gc.Config{
					Net: net, ID: simnet.NodeID(i), InitialView: view,
					Controller: combo.mk(), SpecKind: combo.kind,
					FDInterval: 5 * time.Millisecond, // extra concurrent computations
					RTO:        10 * time.Millisecond,
					Tracer:     recs[i],
					Deliver:    func(simnet.NodeID, []byte) { delivered.Done() },
				})
				sites[i].Start()
			}
			defer func() {
				for i, s := range sites {
					s.Stop()
					for _, err := range s.Errs() {
						t.Errorf("site %d: %v", i, err)
					}
				}
			}()
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < 2; k++ {
						if err := sites[i].ABcast([]byte(fmt.Sprintf("s%d-%d", i, k))); err != nil {
							t.Error(err)
						}
					}
				}(i)
			}
			wg.Wait()
			done := make(chan struct{})
			go func() { delivered.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(15 * time.Second):
				t.Fatal("timeout waiting for deliveries")
			}
			for i, rec := range recs {
				rep := rec.Check()
				if !rep.Serializable {
					t.Fatalf("site %d execution violates isolation: cycle %v", i, rep.Cycle)
				}
				if rep.Computations < 10 {
					t.Fatalf("site %d recorded only %d computations — trace wiring broken?", i, rep.Computations)
				}
			}
		})
	}
}
