package bench

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// SwapSafe returns the controller variants whose version tables survive a
// live Replace: the epoch-aware admission paths of serial and the VCA
// family. Wait-die keys its lock table by microprotocol pointer and is
// excluded from reconfiguration workloads (see internal/chaos).
func SwapSafe() []Variant {
	all := Variants()
	out := make([]Variant, 0, len(all))
	for _, v := range all {
		switch v.Name {
		case "none", "wait-die":
		default:
			out = append(out, v)
		}
	}
	return out
}

// swapLatWorkload keeps `workers` goroutines spawning computations over
// one hot microprotocol while the measuring loop Replaces it. The spec is
// derived from the hot event's binding, so every spawn resolves it
// against the epoch it pins and none has to respawn across a swap.
type swapLatWorkload struct {
	stack *core.Stack
	spec  *core.Spec
	ev    *core.EventType
	work  time.Duration
	stop  atomic.Bool
}

func newSwapLatWorkload(v Variant, work time.Duration) *swapLatWorkload {
	w := &swapLatWorkload{work: work}
	w.stack = core.NewStack(v.New())
	w.ev = core.NewEventType("hot-ev")
	w.spec = core.Derive(1, w.ev)
	mp := core.NewMicroprotocol("hot@v0")
	w.stack.Register(mp)
	w.stack.Bind(w.ev, mp.AddHandler("visit", w.visit).Emits())
	return w
}

func (w *swapLatWorkload) visit(ctx *core.Context, msg core.Message) error {
	time.Sleep(w.work) //samoa:ignore blocking — the sleep is the benchmark's simulated handler work
	return nil
}

// worker spawns computations back to back until stopped.
func (w *swapLatWorkload) worker() error {
	for !w.stop.Load() {
		if err := w.stack.External(w.spec, w.ev, nil); err != nil {
			return err
		}
	}
	return nil
}

// swap performs one measured Replace: install is the time until
// Reconfigure returns (the successor epoch is live and admitting), settle
// additionally waits for the superseded epoch to drain its in-flight
// computations.
func (w *swapLatWorkload) swap(ver int) (install, settle time.Duration, err error) {
	next := core.NewMicroprotocol(fmt.Sprintf("hot@v%d", ver))
	next.AddHandler("visit", w.visit).Emits()

	start := time.Now()
	if err := w.stack.Reconfigure(func(e *core.Epoch) { e.Replace(fmt.Sprintf("hot@v%d", ver-1), next) }); err != nil {
		return 0, 0, err
	}
	install = time.Since(start)
	// Read after the install: the first swap may be what seals the stack.
	<-w.stack.EpochDrained(w.stack.CurrentEpoch() - 1)
	settle = time.Since(start)
	return install, settle, nil
}

// pctile returns the q-quantile (0 ≤ q ≤ 1) of a sorted-in-place sample.
func pctile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q * float64(len(ds)-1))
	return ds[i]
}

// E13SwapLatency measures what a live reconfiguration costs while traffic
// is flowing: `workers` goroutines keep computations in flight over one
// hot microprotocol, and the probe Replaces it `swaps` times back to
// back. Two latencies per swap:
//
//   - install: Reconfigure returns — the successor epoch is published and
//     new spawns land on it.
//   - settle: the superseded epoch has drained — every computation
//     admitted before the swap has finished on the old identity. Bounded
//     below by the handler work still in flight at swap time.
func E13SwapLatency(workers, swaps int, work time.Duration) *Table {
	t := &Table{
		ID:     "E13",
		Title:  fmt.Sprintf("live-reconfiguration latency (%d workers, %d swaps, %v handler work)", workers, swaps, work),
		Header: []string{"controller", "install p50 µs", "install p99 µs", "settle p50 µs", "settle p99 µs"},
	}
	for _, v := range SwapSafe() {
		w := newSwapLatWorkload(v, work)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = w.worker()
			}(i)
		}
		// Let traffic reach steady state before the first swap.
		time.Sleep(4 * work)

		installs := make([]time.Duration, 0, swaps)
		settles := make([]time.Duration, 0, swaps)
		var swapErr error
		for s := 1; s <= swaps; s++ {
			install, settle, err := w.swap(s)
			if err != nil {
				swapErr = err
				break
			}
			installs = append(installs, install)
			settles = append(settles, settle)
			time.Sleep(2 * work)
		}
		w.stop.Store(true)
		wg.Wait()
		if swapErr == nil {
			for _, err := range errs {
				if err != nil {
					swapErr = err
					break
				}
			}
		}
		if swapErr == nil {
			swapErr = w.stack.Close()
		}
		if swapErr != nil {
			panic(fmt.Sprintf("E13 %s: %v", v.Name, swapErr))
		}
		t.AddRow(v.Name,
			fmt.Sprintf("%.0f", float64(pctile(installs, 0.50).Nanoseconds())/1e3),
			fmt.Sprintf("%.0f", float64(pctile(installs, 0.99).Nanoseconds())/1e3),
			fmt.Sprintf("%.0f", float64(pctile(settles, 0.50).Nanoseconds())/1e3),
			fmt.Sprintf("%.0f", float64(pctile(settles, 0.99).Nanoseconds())/1e3),
		)
	}
	t.Note("install: Reconfigure returns, successor epoch admitting; settle: superseded epoch drained; settle floor is the handler work in flight at swap time")
	t.Note("wait-die is excluded: its pointer-keyed lock table is not epoch-aware (see internal/chaos swap storm)")
	return t
}
