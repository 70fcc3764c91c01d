package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// CallWorkload is the E2 micro-benchmark fixture: one microprotocol with
// one empty handler, exercised by computations of a fixed number of
// synchronous calls. With no contention and no handler work, the measured
// time is pure framework + concurrency-control overhead — the quantity
// behind the paper's §7 claim that "the overhead incurred by J-SAMOA's
// concurrency control algorithms ... is relatively low".
type CallWorkload struct {
	stack *core.Stack
	et    *core.EventType
	spec  *core.Spec
	calls int
}

// NewCallWorkload builds the fixture for a variant with the given number
// of handler calls per computation.
func NewCallWorkload(v Variant, callsPerComp int) *CallWorkload {
	return newCallWorkload(v, callsPerComp, nil)
}

// newCallWorkload optionally routes the stack and controller through a
// deterministic scheduler (E10 measures the cost of doing so).
func newCallWorkload(v Variant, callsPerComp int, s *sched.Scheduler) *CallWorkload {
	w := &CallWorkload{calls: callsPerComp}
	ctrl := v.New()
	var opts []core.StackOption
	if s != nil {
		if sc, ok := ctrl.(sched.Schedulable); ok {
			sc.SetBlocker(s)
		}
		opts = append(opts, core.WithHook(s))
	}
	w.stack = core.NewStack(ctrl, opts...)
	mp := core.NewMicroprotocol("mp")
	mp.SetSnapshotter(nopSnapshot{}) // lets rollback controllers run too
	h := mp.AddHandler("h", func(*core.Context, core.Message) error { return nil })
	w.stack.Register(mp)
	w.et = core.NewEventType("e")
	w.stack.Bind(w.et, h)
	// One visit per call, so VCABound's bound is exactly callsPerComp.
	path := make([]*core.Handler, callsPerComp)
	for i := range path {
		path[i] = h
	}
	w.spec = core.PathSpec(path...)
	return w
}

// RunComputation executes one computation making the configured calls.
func (w *CallWorkload) RunComputation() error {
	return w.stack.Isolated(w.spec, func(ctx *core.Context) error {
		for i := 0; i < w.calls; i++ {
			if err := ctx.Trigger(w.et, nil); err != nil {
				return err
			}
		}
		return nil
	})
}

// RunSpawnOnly executes one empty computation (spawn/complete only).
func (w *CallWorkload) RunSpawnOnly() error {
	return w.stack.Isolated(w.spec, nil)
}

// E2Overhead measures per-spawn and per-call costs of every controller and
// the overhead relative to the None (Cactus-model) baseline.
func E2Overhead(comps, callsPerComp int) *Table {
	t := &Table{
		ID:     "E2",
		Title:  fmt.Sprintf("concurrency-control overhead (%d computations × %d calls, uncontended)", comps, callsPerComp),
		Header: []string{"controller", "ns/spawn", "ns/call", "call overhead vs none"},
	}
	var baseCall float64
	for _, v := range Variants() {
		w := NewCallWorkload(v, callsPerComp)
		// Warm up lazy state.
		for i := 0; i < 100; i++ {
			if err := w.RunComputation(); err != nil {
				panic(err)
			}
		}
		start := time.Now()
		for i := 0; i < comps; i++ {
			if err := w.RunSpawnOnly(); err != nil {
				panic(err)
			}
		}
		spawnNs := float64(time.Since(start).Nanoseconds()) / float64(comps)

		start = time.Now()
		for i := 0; i < comps; i++ {
			if err := w.RunComputation(); err != nil {
				panic(err)
			}
		}
		total := float64(time.Since(start).Nanoseconds()) / float64(comps)
		callNs := (total - spawnNs) / float64(callsPerComp)
		if callNs < 0 {
			callNs = 0
		}
		if v.Name == "none" {
			baseCall = callNs
		}
		over := "—"
		if v.Name != "none" && baseCall > 0 {
			over = fmt.Sprintf("+%.0f ns (%.1fx)", callNs-baseCall, callNs/baseCall)
		}
		t.AddRow(v.Name, fmt.Sprintf("%.0f", spawnNs), fmt.Sprintf("%.0f", callNs), over)
	}
	t.Note("expected: a small constant per call — 'relatively low' next to real handler work (paper §7)")
	return t
}
