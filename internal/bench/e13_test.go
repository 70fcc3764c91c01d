package bench

import (
	"sync"
	"testing"
)

// TestE13Shapes runs E13's swap loop structurally, with no handler work
// and no clock: on every swap-safe controller each swap installs, the
// epoch advances by one per swap, every superseded epoch drains, and
// neither the workers nor the stack record an error. The latencies
// themselves are samoa-bench -exp e13's to measure.
func TestE13Shapes(t *testing.T) {
	const workers, swaps = 4, 5
	for _, v := range SwapSafe() {
		w := newSwapLatWorkload(v, 0)
		if err := w.stack.External(w.spec, w.ev, nil); err != nil { // seals the stack: epoch 1
			t.Fatalf("%s: %v", v.Name, err)
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = w.worker()
			}(i)
		}
		for s := 1; s <= swaps; s++ {
			if _, _, err := w.swap(s); err != nil {
				t.Errorf("%s: swap %d: %v", v.Name, s, err)
				break
			}
			if got := w.stack.CurrentEpoch(); got != uint64(1+s) {
				t.Errorf("%s: epoch %d after swap %d, want %d", v.Name, got, s, 1+s)
			}
		}
		w.stop.Store(true)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("%s: worker %d: %v", v.Name, i, err)
			}
		}
		for n := uint64(1); n < w.stack.CurrentEpoch(); n++ {
			select {
			case <-w.stack.EpochDrained(n):
			default:
				t.Errorf("%s: superseded epoch %d never drained", v.Name, n)
			}
		}
		if err := w.stack.Close(); err != nil {
			t.Errorf("%s: Close: %v", v.Name, err)
		}
		if errs := w.stack.EpochErrs(); len(errs) != 0 {
			t.Errorf("%s: epoch errors: %v", v.Name, errs)
		}
	}
}
