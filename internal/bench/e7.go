package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

// RWWorkload is the E7 fixture for the paper's §7 isolation-level
// extension: a "config" microprotocol with a read-only get handler and a
// writing set handler. Readers declare (via a routing spec) that they only
// call get; writers declare set. Under VCARW consecutive readers share the
// microprotocol; under the plain algorithms every computation serializes.
type RWWorkload struct {
	stack     *core.Stack
	eGet      *core.EventType
	eSet      *core.EventType
	readSpec  *core.Spec
	writeSpec *core.Spec
	val       int
}

// NewRWWorkload builds the fixture; handlerWork is the simulated handler
// latency (I/O-ish, so reader concurrency pays off).
func NewRWWorkload(ctrl core.Controller, handlerWork time.Duration) *RWWorkload {
	w := &RWWorkload{}
	w.stack = core.NewStack(ctrl)
	config := core.NewMicroprotocol("config")
	hGet := config.AddHandler("get", func(*core.Context, core.Message) error {
		time.Sleep(handlerWork) //samoa:ignore blocking — the sleep is the benchmark's simulated handler work
		_ = w.val
		return nil
	}, core.ReadOnly())
	hSet := config.AddHandler("set", func(*core.Context, core.Message) error {
		time.Sleep(handlerWork) //samoa:ignore blocking — the sleep is the benchmark's simulated handler work
		w.val++
		return nil
	})
	w.stack.Register(config)
	w.eGet, w.eSet = core.NewEventType("get"), core.NewEventType("set")
	w.stack.Bind(w.eGet, hGet)
	w.stack.Bind(w.eSet, hSet)
	w.readSpec = core.Route(core.NewRouteGraph().Root(hGet))
	w.writeSpec = core.Route(core.NewRouteGraph().Root(hSet))
	return w
}

// Run executes opsPerWorker computations on each of `workers` goroutines
// with the given read ratio, returning throughput (ops/s) and the final
// write count (for the lost-update check).
func (w *RWWorkload) Run(workers, opsPerWorker int, readRatio float64) (float64, int, error) {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	writesPlanned := 0
	plans := make([][]bool, workers) // true = read
	for i := range plans {
		rng := rand.New(rand.NewSource(int64(i) + 13))
		plan := make([]bool, opsPerWorker)
		for j := range plan {
			plan[j] = rng.Float64() < readRatio
			if !plan[j] {
				writesPlanned++
			}
		}
		plans[i] = plan
	}
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, isRead := range plans[i] {
				var err error
				if isRead {
					err = w.stack.External(w.readSpec, w.eGet, nil)
				} else {
					err = w.stack.External(w.writeSpec, w.eSet, nil)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	if w.val != writesPlanned {
		return 0, 0, fmt.Errorf("lost update: %d writes applied, %d planned", w.val, writesPlanned)
	}
	return float64(workers*opsPerWorker) / elapsed.Seconds(), writesPlanned, nil
}

// E7Extensions compares the §7 extension controllers on read-heavy mixes.
func E7Extensions(workers, opsPerWorker int, ratios []float64, handlerWork time.Duration) *Table {
	t := &Table{
		ID:    "E7",
		Title: fmt.Sprintf("§7 extensions: %d workers × %d ops, %v/handler", workers, opsPerWorker, handlerWork),
	}
	t.Header = []string{"controller"}
	for _, r := range ratios {
		t.Header = append(t.Header, fmt.Sprintf("%.0f%% reads (ops/s)", r*100))
	}
	variants := []struct {
		name string
		mk   func() core.Controller
	}{
		{"serial", func() core.Controller { return cc.NewSerial() }},
		{"vca-basic", func() core.Controller { return cc.NewVCABasic() }},
		{"vca-rw", func() core.Controller { return cc.NewVCARW() }},
	}
	for _, v := range variants {
		row := []string{v.name}
		for _, r := range ratios {
			w := NewRWWorkload(v.mk(), handlerWork)
			tput, _, err := w.Run(workers, opsPerWorker, r)
			if err != nil {
				panic(fmt.Sprintf("E7 %s: %v", v.name, err))
			}
			row = append(row, fmt.Sprintf("%.0f", tput))
		}
		t.AddRow(row...)
	}
	t.Note("expected: vca-rw scales with the read ratio (readers share the microprotocol)")
	return t
}
