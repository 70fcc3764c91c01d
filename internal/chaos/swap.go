// Swap storm: the live-reconfiguration half of the chaos harness. Where
// chaos.Run attacks a fixed stack with panics, delays, and deadlines,
// SwapRun additionally hot-swaps microprotocols mid-storm — rotating
// Epoch.Replace reconfigurations race the workload, the fault hook, and
// each other — and then holds the stack to the epoch ledger:
//
//   - Every swap eventually commits: the final epoch is 1 + swaps, even
//     when the hook faults reconfigurations pre-commit (they retry).
//   - Per-epoch drain balance: every superseded epoch retires with
//     Begun == Ended and Active == 0, and zero errors reach EpochErrs.
//   - No dispatch into a dead epoch: DeadEpochDispatches stays zero.
//   - Zero acked-write loss across versions: each slot carries a pair of
//     counters — an atomic ground truth and a racy value whose safety
//     must come from the controller. A replacement that forked its
//     predecessor's version slot would let old- and new-epoch
//     computations interleave on the racy value and lose an update; the
//     pair must match exactly at the end.
//   - Plus everything chaos.Run demands: serializability and lifecycle
//     balance of the trace, a completing post-storm probe, a clean
//     close, and ErrClosed afterwards.
//
// The storm's specs are hand-written against an identity table the
// harness republishes after each swap; one built before a swap whose
// computation pins the epoch after it is refused with
// *core.ReconfiguredError, and the harness retries once the table no
// longer names the refused microprotocol. Protocol stacks avoid this by
// declaring core.Derive specs, which resolve against the pinned epoch
// (gc.Site does).
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// SwapConfig parameterizes one swap storm. The zero value of every field
// but New gets a sensible default.
type SwapConfig struct {
	// New creates a fresh controller; it must implement core.Reconfigurer
	// or be swap-safe by construction (cc.Serial).
	New func() core.Controller
	// Kind is the Spec flavour to build for it.
	Kind Kind
	// Seed drives every random decision of the run.
	Seed int64
	// Computations is the number of concurrent computations (default 60).
	Computations int
	// MPs is the number of counter microprotocols (default 4).
	MPs int
	// Swaps is the number of rotating Replace reconfigurations raced
	// against the workload (default 2*MPs).
	Swaps int
	// Fault probabilities and deadlines, as in Config.
	PanicProb        float64
	DelayProb        float64
	HandlerPanicProb float64
	CancelProb       float64
	Timeout          time.Duration
	// ProbeTimeout bounds the post-storm probe (default 10s).
	ProbeTimeout time.Duration
}

// SwapReport is the outcome of one swap storm.
type SwapReport struct {
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
	ProbeErr     error
	CloseErr     error
	RejectErr    error

	// Recorder holds the full trace for post-mortems.
	Recorder *trace.Recorder
}

// Err returns nil when the storm satisfied every invariant, and an error
// joining each violated one otherwise.
func (r *SwapReport) Err() error {
	var errs []error
	tag := fmt.Sprintf("swapstorm[%s seed=%d]", r.Controller, r.Seed)
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
	return errors.Join(errs...)
}

// String summarizes the storm for logs.
func (r *SwapReport) String() string {
	return fmt.Sprintf("swapstorm[%s seed=%d]: %d computations over %d swaps (epoch %d) — %d completed, %d panicked, %d timed out, %d failed, %d respawns; injected %d hook panics, %d delays, %d handler panics, %d deadlines, %d swap faults; serializable=%v probe=%v close=%v",
		r.Controller, r.Seed, r.Computations, r.Swaps, r.FinalEpoch,
		r.Completed, r.Panicked, r.TimedOut, r.Failed, r.Respawns,
		r.HookPanics, r.HookDelays, r.HandlerPanics, r.Cancels, r.SwapFaults,
		r.Serializable, r.ProbeErr == nil, r.CloseErr == nil)
}

// swapFixture is the swap-storm stack: m counter slots whose occupying
// microprotocol changes under the workload's feet. The slot arrays
// (events, counters) are fixed; the identity tables (mps, handlers) are
// rewritten by swaps under mu, which then broadcast swapped.
type swapFixture struct {
	stack  *core.Stack
	ctrl   core.Controller
	rec    *trace.Recorder
	hook   *faultHook
	events []*core.EventType
	execs  []atomic.Int64 // ground truth: one Add per handler execution
	racy   []int          // same increments, isolation-dependent

	mu       sync.Mutex
	swapped  *sync.Cond // on mu; broadcast after each republished table
	mps      []*core.Microprotocol
	handlers []*core.Handler
	vers     []int

	handlerPanics atomic.Int64
}

// visit builds the slot's handler body. Every version of a slot runs the
// same body over the same counters: the atomic records ground truth, the
// racy read–yield–write must be protected by the controller — across
// epochs, which is exactly what Replaced-slot continuity guarantees.
func (f *swapFixture) visit(i int) core.HandlerFunc {
	return func(ctx *core.Context, msg core.Message) error {
		s := msg.(*script)
		f.execs[i].Add(1)
		v := f.racy[i]
		runtime.Gosched() // widen the lost-update window
		f.racy[i] = v + 1
		if s.panicAt == s.pos {
			f.handlerPanics.Add(1)
			panic(fmt.Sprintf("chaos: planned handler panic at step %d", s.pos))
		}
		if s.pos+1 < len(s.seq) {
			return ctx.Trigger(f.events[s.seq[s.pos+1]],
				&script{seq: s.seq, pos: s.pos + 1, panicAt: s.panicAt})
		}
		return nil
	}
}

func newSwapFixture(cfg SwapConfig, hook *faultHook) *swapFixture {
	f := &swapFixture{
		rec:   trace.NewRecorder(),
		hook:  hook,
		execs: make([]atomic.Int64, cfg.MPs),
		racy:  make([]int, cfg.MPs),
		vers:  make([]int, cfg.MPs),
	}
	f.swapped = sync.NewCond(&f.mu)
	f.ctrl = cfg.New()
	f.stack = core.NewStack(f.ctrl, core.WithName("swapstorm"), core.WithTracer(f.rec), core.WithHook(hook))
	for i := 0; i < cfg.MPs; i++ {
		mp := core.NewMicroprotocol(fmt.Sprintf("swap%d", i))
		h := mp.AddHandler("visit", f.visit(i))
		f.mps = append(f.mps, mp)
		f.handlers = append(f.handlers, h)
		f.events = append(f.events, core.NewEventType(fmt.Sprintf("swapev%d", i)))
	}
	f.stack.Register(f.mps...)
	for i := range f.events {
		f.stack.Bind(f.events[i], f.handlers[i])
	}
	return f
}

// spec builds the Spec flavour for one script against the current
// identity table. A swap may install between the build and the spawn;
// the stack then refuses the spec with ReconfiguredError and run
// rebuilds it.
func (f *swapFixture) spec(kind Kind, seq []int) *core.Spec {
	f.mu.Lock()
	defer f.mu.Unlock()
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

// run spawns one script, rebuilding its spec and retrying whenever a swap
// retired an identity it names. Each retry first waits for the table
// that no longer names the refused microprotocol: only a committed swap
// refuses a spec, and swap republishes right after its commit, so every
// retry is owed to a distinct swap and the loop ends.
func (f *swapFixture) run(kind Kind, seq []int, panicAt int, timeout time.Duration, respawns *atomic.Int64) error {
	for {
		spec := f.spec(kind, seq)
		if timeout > 0 {
			spec = spec.WithTimeout(timeout)
		}
		f.hook.stall() // widen the window in which a swap can stale the spec
		err := f.stack.External(spec, f.events[seq[0]], &script{seq: seq, panicAt: panicAt})
		var re *core.ReconfiguredError
		if !errors.As(err, &re) {
			return err
		}
		respawns.Add(1)
		f.mu.Lock()
		for slices.ContainsFunc(f.mps, func(mp *core.Microprotocol) bool { return mp.Name() == re.MP }) {
			f.swapped.Wait()
		}
		f.mu.Unlock()
	}
}

// swap replaces one slot's microprotocol with a fresh same-behaviour
// version. The fault hook can panic inside Reconfigure before it commits
// (YieldReconfigure); that surfaces as a PanicError and the swap retries.
func (f *swapFixture) swap(slot int, faults *int) error {
	f.mu.Lock()
	oldName := f.mps[slot].Name()
	ver := f.vers[slot] + 1
	f.mu.Unlock()
	next := core.NewMicroprotocol(fmt.Sprintf("swap%dv%d", slot, ver))
	h := next.AddHandler("visit", f.visit(slot))
	for tries := 0; ; tries++ {
		err := f.stack.Reconfigure(func(e *core.Epoch) { e.Replace(oldName, next) })
		if err == nil {
			break
		}
		var pe *core.PanicError
		if !errors.As(err, &pe) || tries >= 100 {
			return err
		}
		*faults++
	}
	f.mu.Lock()
	f.mps[slot] = next
	f.handlers[slot] = h
	f.vers[slot] = ver
	f.mu.Unlock()
	f.swapped.Broadcast()
	return nil
}

// SwapRun executes one swap storm and reports what survived.
func SwapRun(cfg SwapConfig) (*SwapReport, error) {
	if cfg.New == nil {
		return nil, errors.New("chaos: SwapConfig.New required")
	}
	if cfg.Computations <= 0 {
		cfg.Computations = 60
	}
	if cfg.MPs <= 0 {
		cfg.MPs = 4
	}
	if cfg.Swaps <= 0 {
		cfg.Swaps = 2 * cfg.MPs
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
	f := newSwapFixture(cfg, hook)
	rep := &SwapReport{
		Controller:   f.ctrl.Name(),
		Seed:         cfg.Seed,
		Computations: cfg.Computations,
		Swaps:        cfg.Swaps,
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
	pauses := make([]time.Duration, cfg.Swaps)
	for i := range pauses {
		pauses[i] = time.Duration(100+rng.Intn(600)) * time.Microsecond
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		respawns atomic.Int64
	)
	for _, p := range plans {
		wg.Add(1)
		go func(p plan) {
			defer wg.Done()
			err := f.run(cfg.Kind, p.seq, p.panicAt, p.timeout, &respawns)
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
		for k := 0; k < cfg.Swaps; k++ {
			time.Sleep(pauses[k])
			if err := f.swap(k%cfg.MPs, &rep.SwapFaults); err != nil {
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
	rep.Respawns = int(respawns.Load())

	// Probe: a full-footprint computation over the final identity table.
	probeSeq := make([]int, cfg.MPs)
	for i := range probeSeq {
		probeSeq[i] = i
	}
	rep.ProbeErr = f.run(cfg.Kind, probeSeq, -1, cfg.ProbeTimeout, &respawns)

	// Graceful drain with lifecycle verification, then prove the stack
	// rejects new work. Close supersedes the final epoch, so afterwards
	// every epoch in the ledger must have retired with balanced drains.
	rep.CloseErr = f.stack.Close()
	rep.RejectErr = f.stack.External(f.spec(cfg.Kind, []int{0}), f.events[0], &script{seq: []int{0}, panicAt: -1})

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
	for i := range f.racy {
		if truth := f.execs[i].Load(); int64(f.racy[i]) != truth {
			rep.LostUpdates = append(rep.LostUpdates,
				fmt.Sprintf("slot %d: counter %d, ground truth %d", i, f.racy[i], truth))
		}
	}

	check := f.rec.Check()
	rep.Serializable = check.Serializable
	rep.Cycle = check.Cycle
	rep.Stats = f.rec.Stats()
	return rep, nil
}
