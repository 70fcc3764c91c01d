// Package chaos is the fault-injection harness for the fault-containment
// layer (DESIGN.md §10): it drives a stack of counter microprotocols
// through randomized workloads while injecting panics, delays, and
// cancellations — inside handler bodies via the workload plans, and at
// the framework's dispatch yield points via the core.WithHook seam — and
// then interrogates the survivors.
//
// After the storm, three probes decide whether the controller contained
// every fault:
//
//   - A full-footprint probe computation with a generous deadline must
//     complete: if any injection wedged the controller or leaked a
//     version slot, the probe blocks at admission and times out.
//   - Stack.Close must drain and report balanced lifecycles (every begun
//     computation ended), and a post-close computation must be rejected
//     with core.ErrClosed.
//   - The recorded trace must stay conflict-serializable and balanced —
//     the same invariants cctest asserts for fault-free runs.
//
// Runs are reproducible: every random decision derives from Config.Seed.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Kind selects which Spec flavour the controller consumes (mirrors
// cctest.Kind).
type Kind int

// Spec flavours.
const (
	KindBasic Kind = iota // core.Access
	KindBound             // core.AccessBound
	KindRoute             // core.Route
)

// Config parameterizes one chaos run.
type Config struct {
	// New creates a fresh controller (one per run; never reused).
	New func() core.Controller
	// Kind is the Spec flavour to build for it.
	Kind Kind
	// Seed drives every random decision of the run.
	Seed int64
	// Computations is the number of concurrent computations (default 40).
	Computations int
	// MPs is the number of counter microprotocols (default 4).
	MPs int
	// PanicProb is the per-yield-point probability of an injected panic
	// (default 0.05).
	PanicProb float64
	// DelayProb is the per-yield-point probability of an injected delay
	// (default 0.10).
	DelayProb float64
	// HandlerPanicProb is the per-computation probability that one of its
	// handler executions panics mid-body (default 0.20).
	HandlerPanicProb float64
	// CancelProb is the per-computation probability of running under a
	// tiny Spec.WithTimeout deadline (default 0.20).
	CancelProb float64
	// Timeout is the tiny deadline those computations get (default 2ms).
	Timeout time.Duration
	// ProbeTimeout bounds the post-storm probe and the drain (default 10s);
	// hitting it means a wedged controller or a leaked version slot.
	ProbeTimeout time.Duration
	// Snapshot attaches snapshotters to every microprotocol (required by
	// rollback controllers).
	Snapshot bool
}

// Report is the outcome of one chaos run. Err flattens it into the
// verdict the acceptance criteria ask for.
type Report struct {
	Controller   string
	Seed         int64
	Computations int

	// Per-computation outcomes.
	Completed int // returned nil
	Panicked  int // returned a *core.PanicError
	TimedOut  int // returned a *core.DeadlineError
	Failed    int // returned anything else (a containment bug)
	FirstFail error

	// Injection counters.
	HookPanics    int
	HookDelays    int
	HandlerPanics int
	Cancels       int

	// Invariants.
	Serializable bool
	Cycle        []uint64
	Stats        trace.Stats
	ProbeErr     error // nil: no wedged controller, no leaked version slot
	CloseErr     error // nil: drained with balanced lifecycles
	RejectErr    error // want core.ErrClosed from the post-close computation

	// Recorder holds the full trace for post-mortems.
	Recorder *trace.Recorder
}

// Err returns nil when the run satisfied every containment invariant,
// and an error joining each violated one otherwise.
func (r *Report) Err() error {
	var errs []error
	if !r.Serializable {
		errs = append(errs, fmt.Errorf("chaos[%s seed=%d]: surviving computations violate the isolation property (cycle %v)",
			r.Controller, r.Seed, r.Cycle))
	}
	if r.Stats.Spawned != r.Stats.Completed+r.Stats.Aborted {
		errs = append(errs, fmt.Errorf("chaos[%s seed=%d]: trace lifecycle imbalance: %d spawned, %d completed, %d aborted",
			r.Controller, r.Seed, r.Stats.Spawned, r.Stats.Completed, r.Stats.Aborted))
	}
	if r.ProbeErr != nil {
		errs = append(errs, fmt.Errorf("chaos[%s seed=%d]: controller wedged or version slot leaked — probe failed: %w",
			r.Controller, r.Seed, r.ProbeErr))
	}
	if r.CloseErr != nil {
		errs = append(errs, fmt.Errorf("chaos[%s seed=%d]: close: %w", r.Controller, r.Seed, r.CloseErr))
	}
	if !errors.Is(r.RejectErr, core.ErrClosed) {
		errs = append(errs, fmt.Errorf("chaos[%s seed=%d]: post-close computation returned %v, want ErrClosed",
			r.Controller, r.Seed, r.RejectErr))
	}
	if r.Failed > 0 {
		errs = append(errs, fmt.Errorf("chaos[%s seed=%d]: %d computations failed outside the fault model, first: %w",
			r.Controller, r.Seed, r.Failed, r.FirstFail))
	}
	return errors.Join(errs...)
}

// String summarizes the run for logs.
func (r *Report) String() string {
	return fmt.Sprintf("chaos[%s seed=%d]: %d computations — %d completed, %d panicked, %d timed out, %d failed; injected %d hook panics, %d delays, %d handler panics, %d deadlines; serializable=%v probe=%v close=%v",
		r.Controller, r.Seed, r.Computations, r.Completed, r.Panicked, r.TimedOut, r.Failed,
		r.HookPanics, r.HookDelays, r.HandlerPanics, r.Cancels,
		r.Serializable, r.ProbeErr == nil, r.CloseErr == nil)
}

// injected is the panic value the hook throws; keeping it a distinct type
// lets tests distinguish injected faults from real bugs.
type injected struct{ point core.YieldPoint }

func (i injected) String() string {
	return fmt.Sprintf("chaos: injected panic at yield point %d", i.point)
}

// faultHook injects faults at the framework's dispatch yield points. It
// implements core.Hook; the task-tracking half is a no-op (goroutines run
// natively), only Yield misbehaves.
type faultHook struct {
	mu        sync.Mutex
	rng       *rand.Rand
	panicProb float64
	delayProb float64
	panics    int
	delays    int
	armed     atomic.Bool
}

func (h *faultHook) TaskSpawn(any) any { return nil }
func (h *faultHook) TaskBegin(any)     {}
func (h *faultHook) TaskEnd(any)       {}
func (h *faultHook) WaitTasks(any)     {}

func (h *faultHook) Yield(p core.YieldPoint) {
	if h.draw(true) {
		panic(injected{point: p})
	}
}

// stall is Yield for a caller between two steps outside any
// computation: a drawn panic becomes a delay.
func (h *faultHook) stall() { h.draw(false) }

// draw rolls one fault while armed: a panic (reported, when mayPanic) or
// a delay, slept here.
func (h *faultHook) draw(mayPanic bool) (doPanic bool) {
	if !h.armed.Load() {
		return false
	}
	h.mu.Lock()
	roll := h.rng.Float64()
	var delay time.Duration
	switch {
	case mayPanic && roll < h.panicProb:
		doPanic = true
		h.panics++
	case roll < h.panicProb+h.delayProb:
		delay = time.Duration(50+h.rng.Intn(300)) * time.Microsecond
		h.delays++
	}
	h.mu.Unlock()
	time.Sleep(delay)
	return doPanic
}

// script is one computation's workload plan: the chain of microprotocols
// to visit and the step whose handler execution panics (-1 for none).
type script struct {
	seq     []int
	pos     int
	panicAt int
}

// fixture is the chaos stack: m counter microprotocols whose visit
// handlers chain through the script and execute its planned faults.
type fixture struct {
	stack    *core.Stack
	ctrl     core.Controller
	rec      *trace.Recorder
	hook     *faultHook
	mps      []*core.Microprotocol
	events   []*core.EventType
	handlers []*core.Handler
	snaps    []*snapState
	counters []atomic.Int64

	handlerPanics atomic.Int64
}

// snapState is unsynchronized on purpose, exactly like the cctest
// fixture: cross-computation safety of v must come from the controller
// under test, even mid-chaos.
type snapState struct{ v int }

func (s *snapState) Snapshot() any    { return s.v }
func (s *snapState) Restore(snap any) { s.v = snap.(int) }

func newFixture(cfg Config, hook *faultHook) *fixture {
	f := &fixture{
		rec:      trace.NewRecorder(),
		hook:     hook,
		snaps:    make([]*snapState, cfg.MPs),
		counters: make([]atomic.Int64, cfg.MPs),
	}
	f.ctrl = cfg.New()
	f.stack = core.NewStack(f.ctrl, core.WithName("chaos"), core.WithTracer(f.rec), core.WithHook(hook))
	for i := 0; i < cfg.MPs; i++ {
		i := i
		mp := core.NewMicroprotocol(fmt.Sprintf("chaos%d", i))
		if cfg.Snapshot {
			st := &snapState{}
			f.snaps[i] = st
			mp.SetSnapshotter(st)
		}
		h := mp.AddHandler("visit", func(ctx *core.Context, msg core.Message) error {
			s := msg.(*script)
			if f.snaps[i] != nil {
				f.snaps[i].v++
			} else {
				f.counters[i].Add(1)
			}
			if s.panicAt == s.pos {
				f.handlerPanics.Add(1)
				panic(fmt.Sprintf("chaos: planned handler panic at step %d", s.pos))
			}
			if s.pos+1 < len(s.seq) {
				return ctx.Trigger(f.events[s.seq[s.pos+1]],
					&script{seq: s.seq, pos: s.pos + 1, panicAt: s.panicAt})
			}
			return nil
		})
		f.mps = append(f.mps, mp)
		f.handlers = append(f.handlers, h)
		f.events = append(f.events, core.NewEventType(fmt.Sprintf("chaosev%d", i)))
	}
	f.stack.Register(f.mps...)
	for i := range f.events {
		f.stack.Bind(f.events[i], f.handlers[i])
	}
	return f
}

// spec builds the Spec flavour for one script.
func (f *fixture) spec(kind Kind, seq []int) *core.Spec {
	switch kind {
	case KindBound:
		bounds := map[*core.Microprotocol]int{}
		for _, i := range seq {
			bounds[f.mps[i]]++
		}
		return core.AccessBound(bounds)
	case KindRoute:
		g := core.NewRouteGraph().Root(f.handlers[seq[0]])
		for i := 0; i+1 < len(seq); i++ {
			g.Edge(f.handlers[seq[i]], f.handlers[seq[i+1]])
		}
		return core.Route(g)
	default:
		var mps []*core.Microprotocol
		for _, i := range seq {
			mps = append(mps, f.mps[i])
		}
		return core.Access(mps...)
	}
}

// Run executes one chaos run and reports what survived.
func Run(cfg Config) (*Report, error) {
	if cfg.New == nil {
		return nil, errors.New("chaos: Config.New required")
	}
	if cfg.Computations <= 0 {
		cfg.Computations = 40
	}
	if cfg.MPs <= 0 {
		cfg.MPs = 4
	}
	if cfg.PanicProb == 0 {
		cfg.PanicProb = 0.05
	}
	if cfg.DelayProb == 0 {
		cfg.DelayProb = 0.10
	}
	if cfg.HandlerPanicProb == 0 {
		cfg.HandlerPanicProb = 0.20
	}
	if cfg.CancelProb == 0 {
		cfg.CancelProb = 0.20
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 10 * time.Second
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	hook := &faultHook{
		rng:       rand.New(rand.NewSource(cfg.Seed + 1)),
		panicProb: cfg.PanicProb,
		delayProb: cfg.DelayProb,
	}
	hook.armed.Store(true)
	f := newFixture(cfg, hook)
	rep := &Report{
		Controller:   f.ctrl.Name(),
		Seed:         cfg.Seed,
		Computations: cfg.Computations,
		Recorder:     f.rec,
	}

	// Plan the workload single-threaded (reproducibility), then unleash it.
	type plan struct {
		seq     []int
		panicAt int
		timeout time.Duration
	}
	plans := make([]plan, cfg.Computations)
	for i := range plans {
		l := 1 + rng.Intn(4)
		seq := make([]int, l)
		for j := range seq {
			seq[j] = rng.Intn(cfg.MPs)
		}
		p := plan{seq: seq, panicAt: -1}
		if rng.Float64() < cfg.HandlerPanicProb {
			p.panicAt = rng.Intn(l)
		}
		if rng.Float64() < cfg.CancelProb {
			p.timeout = cfg.Timeout
			rep.Cancels++
		}
		plans[i] = p
	}

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, p := range plans {
		wg.Add(1)
		go func(p plan) {
			defer wg.Done()
			spec := f.spec(cfg.Kind, p.seq)
			if p.timeout > 0 {
				spec = spec.WithTimeout(p.timeout)
			}
			err := f.stack.External(spec, f.events[p.seq[0]], &script{seq: p.seq, panicAt: p.panicAt})
			mu.Lock()
			defer mu.Unlock()
			var pe *core.PanicError
			var de *core.DeadlineError
			switch {
			case err == nil:
				rep.Completed++
			case errors.As(err, &pe):
				rep.Panicked++
			case errors.As(err, &de):
				rep.TimedOut++
			default:
				rep.Failed++
				if rep.FirstFail == nil {
					rep.FirstFail = err
				}
			}
		}(p)
	}
	wg.Wait()

	hook.armed.Store(false)
	rep.HookPanics = hook.panics
	rep.HookDelays = hook.delays
	rep.HandlerPanics = int(f.handlerPanics.Load())

	// Probe: a full-footprint computation with a generous deadline. If any
	// injection wedged the controller or leaked a version slot, admission
	// never comes and the probe times out instead of hanging the harness.
	probeSeq := make([]int, cfg.MPs)
	for i := range probeSeq {
		probeSeq[i] = i
	}
	probeSpec := f.spec(cfg.Kind, probeSeq).WithTimeout(cfg.ProbeTimeout)
	rep.ProbeErr = f.stack.External(probeSpec, f.events[0], &script{seq: probeSeq, panicAt: -1})

	// Graceful drain with lifecycle verification, then prove the stack
	// rejects new work.
	rep.CloseErr = f.stack.Close()
	rep.RejectErr = f.stack.External(f.spec(cfg.Kind, []int{0}), f.events[0], &script{seq: []int{0}, panicAt: -1})

	check := f.rec.Check()
	rep.Serializable = check.Serializable
	rep.Cycle = check.Cycle
	rep.Stats = f.rec.Stats()
	return rep, nil
}
