// Package chaos is the fault-injection harness for the fault-containment
// layer (DESIGN.md §10) and for live reconfiguration (DESIGN.md §15): it
// drives a stack of counter microprotocols through randomized workloads
// while injecting panics, delays, and cancellations — inside handler
// bodies via the workload plans, and at the framework's dispatch yield
// points via the core.WithHook seam — and, when Config.Swaps is set,
// races rotating Epoch.Replace swaps against all of it. Then it
// interrogates the survivors:
//
//   - A full-footprint probe computation with a generous deadline must
//     complete: if any injection wedged the controller or leaked a
//     version slot, the probe blocks at admission and times out.
//   - Stack.Close must drain and report balanced lifecycles (every begun
//     computation ended), and a post-close computation must be rejected
//     with core.ErrClosed.
//   - The recorded trace must stay conflict-serializable and balanced —
//     the same invariants cctest asserts for fault-free runs.
//   - The epoch ledger must balance: every swap commits (the final epoch
//     is 1 + Swaps, even when the hook faults reconfigurations
//     pre-commit and they retry), every superseded epoch retires with
//     Begun == Ended and Active == 0, no error reaches EpochErrs, and no
//     dispatch enters a dead epoch.
//   - No update is lost: each slot carries an atomic ground truth and a
//     racy counter whose safety must come from the controller, across
//     versions too — a replacement that forked its predecessor's version
//     slot would let old- and new-epoch computations interleave on it.
//     What a rollback controller restores is counted as rolled back.
//
// Specs are written out by hand against the stack's live bindings, as
// cctest does. One built before a swap whose computation pins the epoch
// after it is refused with *core.ReconfiguredError and rebuilt. Protocol
// stacks avoid this by declaring core.Derive specs, which resolve
// against the pinned epoch (gc.Site does).
//
// Runs are reproducible: every random decision derives from Config.Seed.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// The storm's shape, shared by every run.
const (
	computations     = 60                   // concurrent computations
	nSlots           = 4                    // counter microprotocols (slots)
	panicProb        = 0.05                 // per-yield-point injected panic
	delayProb        = 0.10                 // per-yield-point injected delay
	handlerPanicProb = 0.20                 // per-computation planned handler panic
	cancelProb       = 0.20                 // per-computation tiny deadline
	cancelTimeout    = 2 * time.Millisecond // that deadline
	probeTimeout     = 10 * time.Second     // bounds the post-storm probe
)

// Config parameterizes one storm.
type Config struct {
	// New creates a fresh controller (one per run; never reused). With
	// Swaps > 0 it must implement core.Reconfigurer or be swap-safe by
	// construction (cc.Serial).
	New func() core.Controller
	// Kind is the Spec flavour to build for it.
	Kind core.SpecKind
	// Seed drives every random decision of the run.
	Seed int64
	// Swaps is the number of rotating Replace reconfigurations raced
	// against the workload; 0 storms a fixed stack.
	Swaps int
}

// Report is the outcome of one storm. Err flattens it into the verdict.
type Report struct {
	Controller   string
	Seed         int64
	Computations int
	Swaps        int

	// Per-computation outcomes.
	Completed int // returned nil
	Panicked  int // returned a *core.PanicError
	TimedOut  int // returned a *core.DeadlineError
	Failed    int // returned anything else (a containment bug)
	FirstFail error
	Respawns  int // spawn retries after a ReconfiguredError

	// Injection counters.
	HookPanics    int
	HookDelays    int
	HandlerPanics int
	Cancels       int
	SwapFaults    int // reconfigurations faulted pre-commit and retried

	// Epoch-ledger invariants.
	FinalEpoch  uint64 // want 1 + Swaps
	EpochStats  []core.EpochStat
	LedgerErrs  []string // superseded epochs with unbalanced drains
	EpochErrs   []error  // retirement errors recorded by the stack
	DeadEpochs  uint64   // dispatches into a retired epoch
	LostUpdates []string // slots whose racy counter trails the ground truth
	SwapErr     error    // a reconfiguration failed outside the fault model

	// Trace invariants.
	Serializable bool
	Cycle        []uint64
	Stats        trace.Stats
	ProbeErr     error // nil: no wedged controller, no leaked version slot
	CloseErr     error // nil: drained with balanced lifecycles
	RejectErr    error // want core.ErrClosed from the post-close computation

	// Recorder holds the full trace for post-mortems.
	Recorder *trace.Recorder
}

// Err returns nil when the storm satisfied every invariant, and an error
// joining each violated one otherwise.
func (r *Report) Err() error {
	var errs []error
	tag := fmt.Sprintf("chaos[%s seed=%d]", r.Controller, r.Seed)
	if !r.Serializable {
		errs = append(errs, fmt.Errorf("%s: surviving computations violate the isolation property (cycle %v)",
			tag, r.Cycle))
	}
	if r.Stats.Spawned != r.Stats.Completed+r.Stats.Aborted {
		errs = append(errs, fmt.Errorf("%s: trace lifecycle imbalance: %d spawned, %d completed, %d aborted",
			tag, r.Stats.Spawned, r.Stats.Completed, r.Stats.Aborted))
	}
	if r.ProbeErr != nil {
		errs = append(errs, fmt.Errorf("%s: controller wedged or version slot leaked — probe failed: %w",
			tag, r.ProbeErr))
	}
	if r.CloseErr != nil {
		errs = append(errs, fmt.Errorf("%s: close: %w", tag, r.CloseErr))
	}
	if !errors.Is(r.RejectErr, core.ErrClosed) {
		errs = append(errs, fmt.Errorf("%s: post-close computation returned %v, want ErrClosed", tag, r.RejectErr))
	}
	if r.Failed > 0 {
		errs = append(errs, fmt.Errorf("%s: %d computations failed outside the fault model, first: %w",
			tag, r.Failed, r.FirstFail))
	}
	if want := uint64(1 + r.Swaps); r.FinalEpoch != want {
		errs = append(errs, fmt.Errorf("%s: final epoch %d, want %d — a reconfiguration never committed",
			tag, r.FinalEpoch, want))
	}
	for _, msg := range r.LedgerErrs {
		errs = append(errs, fmt.Errorf("%s: epoch ledger: %s", tag, msg))
	}
	for _, err := range r.EpochErrs {
		errs = append(errs, fmt.Errorf("%s: epoch error: %w", tag, err))
	}
	if r.DeadEpochs > 0 {
		errs = append(errs, fmt.Errorf("%s: %d dispatches into a retired epoch", tag, r.DeadEpochs))
	}
	for _, msg := range r.LostUpdates {
		errs = append(errs, fmt.Errorf("%s: acked-write loss: %s", tag, msg))
	}
	if r.SwapErr != nil {
		errs = append(errs, fmt.Errorf("%s: swap failed outside the fault model: %w", tag, r.SwapErr))
	}
	return errors.Join(errs...)
}

// String summarizes the storm for logs.
func (r *Report) String() string {
	return fmt.Sprintf("chaos[%s seed=%d]: %d computations over %d swaps (epoch %d) — %d completed, %d panicked, %d timed out, %d failed, %d respawns; injected %d hook panics, %d delays, %d handler panics, %d deadlines, %d swap faults; serializable=%v probe=%v close=%v",
		r.Controller, r.Seed, r.Computations, r.Swaps, r.FinalEpoch,
		r.Completed, r.Panicked, r.TimedOut, r.Failed, r.Respawns,
		r.HookPanics, r.HookDelays, r.HandlerPanics, r.Cancels, r.SwapFaults,
		r.Serializable, r.ProbeErr == nil, r.CloseErr == nil)
}

// injected is the panic value the hook throws; keeping it a distinct type
// tells injected faults apart from real bugs.
type injected struct{ point core.YieldPoint }

func (i injected) String() string {
	return fmt.Sprintf("chaos: injected panic at yield point %d", i.point)
}

// faultHook injects faults at the framework's dispatch yield points. It
// implements core.Hook; the task-tracking half is a no-op (goroutines run
// natively), only Yield misbehaves.
type faultHook struct {
	mu     sync.Mutex
	rng    *rand.Rand
	panics int
	delays int
	armed  atomic.Bool
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
	case mayPanic && roll < panicProb:
		doPanic = true
		h.panics++
	case roll < panicProb+delayProb:
		delay = time.Duration(50+h.rng.Intn(300)) * time.Microsecond
		h.delays++
	}
	h.mu.Unlock()
	time.Sleep(delay)
	return doPanic
}

// plan is one computation's workload: the chain of slots to visit, the
// step whose handler execution panics (-1 for none), and its deadline
// (0 for none).
type plan struct {
	seq     []int
	panicAt int
	timeout time.Duration
}

// script is the message a plan's handlers pass along the chain.
type script struct {
	seq     []int
	pos     int
	panicAt int
}

// slot is one counter position of the stack. Every microprotocol version
// that occupies it runs the same visit body over the same counters and
// has the slot as its Snapshotter: execs is the ground truth (one Add
// per handler execution), racy the same increments by a read–yield–write
// whose safety must come from the controller, and rolledBack what
// Restore undid, so racy + rolledBack == execs exactly.
type slot struct {
	execs      atomic.Int64
	racy       int
	rolledBack int
}

func (s *slot) Snapshot() any { return s.racy }

func (s *slot) Restore(snap any) {
	s.rolledBack += s.racy - snap.(int)
	s.racy = snap.(int)
}

// injector is what the fixture needs of its fault hook: the core.Hook
// the stack yields to, plus stall for the harness's own steps.
type injector interface {
	core.Hook
	stall()
}

// fixture is the storm's stack: one counter microprotocol per slot,
// whose occupant swaps replace under the workload's feet.
type fixture struct {
	stack  *core.Stack
	rec    *trace.Recorder
	hook   injector
	kind   core.SpecKind
	swaps  int
	events []*core.EventType
	slots  []*slot

	respawns      atomic.Int64
	handlerPanics atomic.Int64
}

func newFixture(cfg Config, hook injector) *fixture {
	f := &fixture{rec: trace.NewRecorder(), hook: hook, kind: cfg.Kind, swaps: cfg.Swaps}
	f.stack = core.NewStack(cfg.New(), core.WithName("chaos"), core.WithTracer(f.rec), core.WithHook(hook))
	for i := 0; i < nSlots; i++ {
		f.slots = append(f.slots, &slot{})
		f.events = append(f.events, core.NewEventType(fmt.Sprintf("chaosev%d", i)))
		mp, h := f.version(i, fmt.Sprintf("chaos%d", i))
		f.stack.Register(mp)
		f.stack.Bind(f.events[i], h)
	}
	return f
}

// version builds one microprotocol occupying slot i.
func (f *fixture) version(i int, name string) (*core.Microprotocol, *core.Handler) {
	sl := f.slots[i]
	mp := core.NewMicroprotocol(name)
	mp.SetSnapshotter(sl)
	h := mp.AddHandler("visit", func(ctx *core.Context, msg core.Message) error {
		s := msg.(*script)
		sl.execs.Add(1)
		v := sl.racy
		runtime.Gosched() // widen the lost-update window
		sl.racy = v + 1
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
	return mp, h
}

// spec writes the script's spec out by hand against the stack's live
// bindings: exactly the microprotocols it visits (with their visit
// counts, or its path as the routing graph).
func (f *fixture) spec(seq []int) *core.Spec {
	hs := make([]*core.Handler, len(seq))
	for j, i := range seq {
		hs[j] = f.stack.Bound(f.events[i])[0]
	}
	switch f.kind {
	case core.SpecBound:
		bounds := map[*core.Microprotocol]int{}
		for _, h := range hs {
			bounds[h.MP()]++
		}
		return core.AccessBound(bounds)
	case core.SpecRoute:
		g := core.NewRouteGraph().Root(hs[0])
		for j := 0; j+1 < len(hs); j++ {
			g.Edge(hs[j], hs[j+1])
		}
		return core.Route(g)
	default:
		var mps []*core.Microprotocol
		for _, h := range hs {
			mps = append(mps, h.MP())
		}
		return core.Access(mps...)
	}
}

// run spawns one plan. A swap that commits between the spec's build and
// the computation's pin refuses it with ReconfiguredError; the rebuilt
// spec reads bindings at least that new, so every refusal is owed to a
// distinct committed swap and swaps+1 attempts always suffice.
func (f *fixture) run(p plan) error {
	for try := 0; ; try++ {
		spec := f.spec(p.seq)
		if p.timeout > 0 {
			spec = spec.WithTimeout(p.timeout)
		}
		f.hook.stall() // widen the window in which a swap can stale the spec
		err := f.stack.External(spec, f.events[p.seq[0]], &script{seq: p.seq, panicAt: p.panicAt})
		var re *core.ReconfiguredError
		if !errors.As(err, &re) || try == f.swaps {
			return err
		}
		f.respawns.Add(1)
	}
}

// swap replaces the occupant of slot k mod nSlots with a fresh version. The
// fault hook can panic inside Reconfigure before it commits
// (YieldReconfigure); only that injected panic is retried, anything else
// is returned at once.
func (f *fixture) swap(k int, faults *int) error {
	i := k % len(f.slots)
	old := f.stack.Bound(f.events[i])[0].MP().Name()
	next, _ := f.version(i, fmt.Sprintf("chaos%dv%d", i, k/len(f.slots)+1))
	for {
		err := f.stack.Reconfigure(func(e *core.Epoch) { e.Replace(old, next) })
		var pe *core.PanicError
		if !errors.As(err, &pe) {
			return err
		}
		if _, ok := pe.Value.(injected); !ok {
			return err
		}
		*faults++
	}
}

// Run executes one storm and reports what survived.
func Run(cfg Config) (*Report, error) {
	if cfg.New == nil {
		return nil, errors.New("chaos: Config.New required")
	}
	if cfg.Swaps < 0 {
		return nil, errors.New("chaos: Config.Swaps must not be negative")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	hook := &faultHook{rng: rand.New(rand.NewSource(cfg.Seed + 1))}
	hook.armed.Store(true)
	f := newFixture(cfg, hook)
	rep := &Report{
		Controller:   f.stack.Controller().Name(),
		Seed:         cfg.Seed,
		Computations: computations,
		Swaps:        cfg.Swaps,
		Recorder:     f.rec,
	}

	// Plan the workload single-threaded (reproducibility), then unleash it.
	plans := make([]plan, computations)
	for i := range plans {
		l := 1 + rng.Intn(4)
		seq := make([]int, l)
		for j := range seq {
			seq[j] = rng.Intn(nSlots)
		}
		p := plan{seq: seq, panicAt: -1}
		if rng.Float64() < handlerPanicProb {
			p.panicAt = rng.Intn(l)
		}
		if rng.Float64() < cancelProb {
			p.timeout = cancelTimeout
			rep.Cancels++
		}
		plans[i] = p
	}
	pauses := make([]time.Duration, cfg.Swaps)
	for i := range pauses {
		pauses[i] = time.Duration(100+rng.Intn(600)) * time.Microsecond
	}

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, p := range plans {
		wg.Add(1)
		go func(p plan) {
			defer wg.Done()
			err := f.run(p)
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k, pause := range pauses {
			time.Sleep(pause)
			if err := f.swap(k, &rep.SwapFaults); err != nil {
				mu.Lock()
				rep.SwapErr = err
				mu.Unlock()
				return
			}
		}
	}()
	wg.Wait()

	hook.armed.Store(false)
	rep.HookPanics = hook.panics
	rep.HookDelays = hook.delays
	rep.HandlerPanics = int(f.handlerPanics.Load())
	rep.Respawns = int(f.respawns.Load())

	// Probe: a full-footprint computation with a generous deadline. If any
	// injection wedged the controller or leaked a version slot, admission
	// never comes and the probe times out instead of hanging the harness.
	probe := plan{seq: make([]int, nSlots), panicAt: -1, timeout: probeTimeout}
	for i := range probe.seq {
		probe.seq[i] = i
	}
	rep.ProbeErr = f.run(probe)

	// Graceful drain with lifecycle verification, then prove the stack
	// rejects new work. Close supersedes the final epoch, so afterwards
	// every epoch in the ledger must have retired with balanced drains.
	rep.CloseErr = f.stack.Close()
	rep.RejectErr = f.run(plan{seq: []int{0}, panicAt: -1})

	rep.FinalEpoch = f.stack.CurrentEpoch()
	rep.EpochStats = f.stack.EpochStats()
	for _, st := range rep.EpochStats {
		if st.Begun != st.Ended || st.Active != 0 {
			rep.LedgerErrs = append(rep.LedgerErrs,
				fmt.Sprintf("epoch %d: begun %d, ended %d, active %d", st.Epoch, st.Begun, st.Ended, st.Active))
		}
		if st.Superseded && !st.Retired {
			rep.LedgerErrs = append(rep.LedgerErrs,
				fmt.Sprintf("epoch %d: superseded but never retired", st.Epoch))
		}
	}
	rep.EpochErrs = f.stack.EpochErrs()
	rep.DeadEpochs = f.stack.DeadEpochDispatches()
	for i, sl := range f.slots {
		if truth := sl.execs.Load(); int64(sl.racy+sl.rolledBack) != truth {
			rep.LostUpdates = append(rep.LostUpdates,
				fmt.Sprintf("slot %d: counter %d + %d rolled back, ground truth %d", i, sl.racy, sl.rolledBack, truth))
		}
	}

	check := f.rec.Check()
	rep.Serializable = check.Serializable
	rep.Cycle = check.Cycle
	rep.Stats = f.rec.Stats()
	return rep, nil
}
