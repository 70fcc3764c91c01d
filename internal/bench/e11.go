package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
)

// E11 is the contention suite behind the sharded-admission work
// (DESIGN.md §11): how does full-computation throughput scale with
// GOMAXPROCS when footprints are disjoint (the lock-free CAS fast path),
// zipfian-overlapping (a mix of fast and ordered-lock slow claims), and
// hot-key (every spawn conflicts on one shared microprotocol)? The same
// fixture backs the root-level Contention* benchmarks.

// spawnStatser is implemented by the sharded controllers: fast/slow
// admission-path counts (cc's SpawnStats).
type spawnStatser interface {
	SpawnStats() (fast, slow uint64)
}

// zipfLanes is the microprotocol-set size of the zipfian shape, and
// zipfTable the length of the per-worker pre-drawn lane sequence (drawn
// outside the timed loop, cycled inside it).
const (
	zipfLanes = 16
	zipfTable = 1024
)

// ContentionWorkload is one (controller, shape) contention fixture.
// Shapes:
//
//   - disjoint: worker i spawns computations over its private
//     microprotocol only — zero conflicts, the pure fast-path regime.
//   - zipf: every computation uses one of 16 single-microprotocol specs,
//     drawn zipfian, so a few hot lanes see most of the traffic and the
//     rest almost none — fast and slow claims mix.
//   - hotkey: worker i's spec is {own_i, hot}; its handler chain visits
//     own_i then hot, so every spawn conflicts on the hot slot and the
//     algorithms serialize there — the honest worst case.
type ContentionWorkload struct {
	Ctrl  core.Controller
	stack *core.Stack
	shape string
	specs []*core.Spec
	evs   []*core.EventType
	seqs  [][]int // per worker: pre-drawn spec index sequence (zipf)
}

// NewContentionWorkload builds the fixture for v with `workers` worker
// lanes.
func NewContentionWorkload(v Variant, shape string, workers int) *ContentionWorkload {
	w := &ContentionWorkload{Ctrl: v.New(), shape: shape}
	w.stack = core.NewStack(w.Ctrl)

	newLane := func(name string) (*core.Handler, *core.EventType) {
		mp := core.NewMicroprotocol(name)
		h := mp.AddHandler("h", func(*core.Context, core.Message) error { return nil })
		w.stack.Register(mp)
		et := core.NewEventType("e-" + name)
		w.stack.Bind(et, h)
		return h, et
	}

	switch shape {
	case "zipf":
		for i := 0; i < zipfLanes; i++ {
			h, et := newLane(fmt.Sprintf("z%d", i))
			w.specs = append(w.specs, core.PathSpec(h))
			w.evs = append(w.evs, et)
		}
		w.seqs = make([][]int, workers)
		for i := range w.seqs {
			z := rand.NewZipf(rand.New(rand.NewSource(int64(i)+1)), 1.2, 1, zipfLanes-1)
			seq := make([]int, zipfTable)
			for j := range seq {
				seq[j] = int(z.Uint64())
			}
			w.seqs[i] = seq
		}
	case "hotkey":
		hot := core.NewMicroprotocol("hot")
		hotH := hot.AddHandler("h", func(*core.Context, core.Message) error { return nil })
		w.stack.Register(hot)
		hotEv := core.NewEventType("e-hot")
		w.stack.Bind(hotEv, hotH)
		for i := 0; i < workers; i++ {
			mp := core.NewMicroprotocol(fmt.Sprintf("own%d", i))
			h := mp.AddHandler("h", func(ctx *core.Context, msg core.Message) error {
				return ctx.Trigger(hotEv, msg)
			})
			w.stack.Register(mp)
			et := core.NewEventType(fmt.Sprintf("e-own%d", i))
			w.stack.Bind(et, h)
			w.specs = append(w.specs, core.PathSpec(h, hotH))
			w.evs = append(w.evs, et)
		}
	default: // disjoint
		for i := 0; i < workers; i++ {
			h, et := newLane(fmt.Sprintf("d%d", i))
			w.specs = append(w.specs, core.PathSpec(h))
			w.evs = append(w.evs, et)
		}
	}
	return w
}

// RunWorker executes ops computations as worker i.
func (w *ContentionWorkload) RunWorker(i, ops int) error {
	switch w.shape {
	case "zipf":
		seq := w.seqs[i]
		for n := 0; n < ops; n++ {
			lane := seq[n%len(seq)]
			if err := w.stack.External(w.specs[lane], w.evs[lane], nil); err != nil {
				return err
			}
		}
	default:
		spec, ev := w.specs[i], w.evs[i]
		for n := 0; n < ops; n++ {
			if err := w.stack.External(spec, ev, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes opsPerWorker computations on each of `workers` goroutines
// and returns the aggregate throughput in computations per second.
func (w *ContentionWorkload) Run(workers, opsPerWorker int) (float64, error) {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.RunWorker(i, opsPerWorker)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(workers*opsPerWorker) / elapsed.Seconds(), nil
}

// E11Contention sweeps the three contention shapes over the given
// GOMAXPROCS values. Each table point builds a fresh fixture (fresh
// controller, fresh version state), runs `workers` goroutines ×
// opsPerWorker computations, and reports aggregate throughput; the
// scale column is the last point over the first, and fast% is the
// fraction of spawns the sharded controllers admitted on the lock-free
// CAS path at the highest GOMAXPROCS point (— for controllers without
// an admission fast path).
func E11Contention(cpus []int, workers, opsPerWorker int) *Table {
	t := &Table{
		ID: "E11",
		Title: fmt.Sprintf("contention scaling, %d workers × %d computations/point, host CPUs=%d",
			workers, opsPerWorker, runtime.NumCPU()),
	}
	t.Header = []string{"workload/controller"}
	for _, c := range cpus {
		t.Header = append(t.Header, fmt.Sprintf("P=%d (ops/s)", c))
	}
	t.Header = append(t.Header, "scale", "fast%")

	variants := []string{"none", "serial", "vca-basic", "vca-bound", "vca-rw"}
	for _, shape := range []string{"disjoint", "zipf", "hotkey"} {
		for _, name := range variants {
			v, ok := VariantByName(name)
			if !ok {
				panic("unknown variant " + name)
			}
			row := []string{shape + "/" + name}
			var first, last float64
			fastCol := "—"
			for _, c := range cpus {
				prev := runtime.GOMAXPROCS(c)
				w := NewContentionWorkload(v, shape, workers)
				tput, err := w.Run(workers, opsPerWorker)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					panic(fmt.Sprintf("E11 %s/%s: %v", shape, name, err))
				}
				if first == 0 {
					first = tput
				}
				last = tput
				row = append(row, fmt.Sprintf("%.0f", tput))
				if ss, ok := w.Ctrl.(spawnStatser); ok {
					fast, slow := ss.SpawnStats()
					if fast+slow > 0 {
						fastCol = fmt.Sprintf("%.0f%%", 100*float64(fast)/float64(fast+slow))
					}
				}
			}
			row = append(row, fmt.Sprintf("%.2fx", last/first), fastCol)
			t.AddRow(row...)
		}
	}
	t.Note("P is GOMAXPROCS; on a host with fewer physical CPUs the sweep measures oversubscription, not hardware parallelism")
	t.Note("expected: disjoint VCA* spawns stay ~100%% on the CAS fast path and scale with P up to the hardware ceiling;")
	t.Note("hotkey conflicts on every spawn (0%% fast), so all isolating controllers serialize there by design")
	return t
}
