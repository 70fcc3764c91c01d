package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// ScaleWorkload is the E3 fixture: W workers run computations over a
// 3-stage chain of microprotocols with I/O-like work (a sleep) per
// handler — the paper's own motivation for concurrency between
// computations is "processing time consuming I/O operations in
// background" (§3). In the "disjoint" shape every worker owns a private
// chain (specs never overlap); in the "shared" shape all workers hammer
// one chain. The paper's qualitative claim (§1–§2): Appia's serial model
// cannot overlap independent computations, SAMOA can.
type ScaleWorkload struct {
	stack  *core.Stack
	chains [][]*core.Microprotocol
	events [][]*core.EventType
	specs  []*core.Spec
	shared bool
}

// chainLen is the number of stages each computation visits.
const chainLen = 3

// NewScaleWorkload builds the fixture with `workers` private chains
// (disjoint) or one chain everyone uses (shared). work is the simulated
// I/O latency per handler.
func NewScaleWorkload(v Variant, workers int, shared bool, work time.Duration) *ScaleWorkload {
	w := &ScaleWorkload{shared: shared}
	w.stack = core.NewStack(v.New())
	nChains := workers
	if shared {
		nChains = 1
	}
	for c := 0; c < nChains; c++ {
		var mps []*core.Microprotocol
		var evs []*core.EventType
		var hs []*core.Handler
		for i := 0; i < chainLen; i++ {
			i := i
			mp := core.NewMicroprotocol(fmt.Sprintf("c%d-s%d", c, i))
			evs = append(evs, core.NewEventType(fmt.Sprintf("c%d-e%d", c, i)))
			h := mp.AddHandler("run", func(ctx *core.Context, msg core.Message) error {
				time.Sleep(work) //samoa:ignore blocking — the sleep is the benchmark's simulated handler work
				if i+1 < chainLen {
					return ctx.Trigger(evs[i+1], msg)
				}
				return nil
			})
			mps = append(mps, mp)
			hs = append(hs, h)
		}
		w.stack.Register(mps...)
		for i := range evs {
			w.stack.Bind(evs[i], hs[i])
		}
		w.chains = append(w.chains, mps)
		w.events = append(w.events, evs)

		w.specs = append(w.specs, core.PathSpec(hs...))
	}
	return w
}

// RunWorker executes `ops` computations as worker i.
func (w *ScaleWorkload) RunWorker(i, ops int) error {
	c := 0
	if !w.shared {
		c = i
	}
	spec, ev := w.specs[c], w.events[c][0]
	for n := 0; n < ops; n++ {
		if err := w.stack.External(spec, ev, nil); err != nil {
			return err
		}
	}
	return nil
}

// Run executes totalOps computations split across `workers` goroutines and
// returns the throughput in computations per second.
func (w *ScaleWorkload) Run(workers, totalOps int) (float64, error) {
	per := totalOps / workers
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.RunWorker(i, per)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(per*workers) / elapsed.Seconds(), nil
}

// E3Scalability measures throughput versus worker count for the disjoint
// and shared workload shapes.
func E3Scalability(workerCounts []int, opsPerPoint int, work time.Duration) *Table {
	t := &Table{
		ID:    "E3",
		Title: fmt.Sprintf("throughput scaling, %d-stage chain, %d ops/point, %v I/O-like work/handler", chainLen, opsPerPoint, work),
	}
	t.Header = []string{"workload", "controller"}
	for _, g := range workerCounts {
		t.Header = append(t.Header, fmt.Sprintf("g=%d (ops/s)", g))
	}
	t.Header = append(t.Header, "speedup")
	for _, shared := range []bool{false, true} {
		shape := "disjoint"
		if shared {
			shape = "shared"
		}
		for _, v := range PaperVariants() {
			if v.Name == "none" && shared {
				continue // unsynchronised shared state: undefined behaviour
			}
			row := []string{shape, v.Name}
			var first, last float64
			for _, g := range workerCounts {
				w := NewScaleWorkload(v, g, shared, work)
				tput, err := w.Run(g, opsPerPoint)
				if err != nil {
					panic(err)
				}
				if first == 0 {
					first = tput
				}
				last = tput
				row = append(row, fmt.Sprintf("%.0f", tput))
			}
			row = append(row, fmt.Sprintf("%.1fx", last/first))
			t.AddRow(row...)
		}
	}
	t.Note("expected: on disjoint work VCA* scale with workers while Serial stays flat;")
	t.Note("on fully-shared work VCAbasic ≈ Serial (correct but serialized) — the cost of coarse specs")
	return t
}
