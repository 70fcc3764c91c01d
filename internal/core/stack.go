package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// Stack is a composition of microprotocols: the unit the paper calls a
// protocol. It owns the event-type bindings and delegates admission of
// every handler call to its Controller.
//
// A stack is built in two phases. First, Register microprotocols and Bind
// event types to handlers; this phase is single-threaded and guarded by
// mu. The first Isolated call seals the stack and publishes the binding
// table as epoch 1 — an immutable snapshot behind an atomic pointer;
// afterwards dispatch (Trigger, TriggerAll, Bound) is lock-free and
// allocation-free — readers only dereference the snapshot. Bindings are
// immutable within an epoch (the paper's static-binding assumption);
// Reconfigure installs a successor epoch on a live stack (see epoch.go),
// and Rebind remains as the quiescent-only special case.
type Stack struct {
	name   string
	ctrl   Controller
	tracer Tracer
	hook   Hook // deterministic-scheduler hook; nil in production

	mu       sync.Mutex // guards bindings, mps, and history during build, Rebind, and Reconfigure
	bindings map[*EventType][]*Handler
	mps      map[string]*Microprotocol

	// snap is the current epoch — the published immutable binding table;
	// nil until sealed. Everything reachable from a published epoch is
	// never mutated — Reconfigure builds a new epoch and swaps the
	// pointer. history holds every installed epoch, oldest first.
	snap    atomic.Pointer[epochSnap]
	history []*epochSnap // guarded by mu
	sealed  atomic.Bool
	active  atomic.Int64 // computations between Isolated entry and return

	compSeq atomic.Uint64
	invSeq  atomic.Uint64

	// Shutdown state (Close). begun/ended count controller lifecycle
	// legs — a Spawn or an accepted retry begins one, a Complete or a
	// retired retry token ends one — so Close can verify the balance the
	// controllers' proofs assume. The same legs are mirrored per epoch
	// for retirement accounting.
	closed    atomic.Bool
	begun     atomic.Uint64
	ended     atomic.Uint64
	drained   chan struct{}
	drainOnce sync.Once

	// Epoch retirement diagnostics (see epoch.go).
	epochMu      sync.Mutex
	epochErrs    []error
	deadDispatch atomic.Uint64
}

// StackOption configures a Stack at creation.
type StackOption func(*Stack)

// WithTracer attaches a Tracer to the stack.
func WithTracer(t Tracer) StackOption {
	return func(s *Stack) { s.tracer = t }
}

// WithName names the stack (for diagnostics).
func WithName(name string) StackOption {
	return func(s *Stack) { s.name = name }
}

// NewStack creates a stack whose computations are scheduled by ctrl.
// Controllers hold per-stack state and must not be shared across stacks.
func NewStack(ctrl Controller, opts ...StackOption) *Stack {
	if ctrl == nil {
		panic("samoa: NewStack with nil controller")
	}
	s := &Stack{
		ctrl:     ctrl,
		tracer:   nopTracer{},
		bindings: make(map[*EventType][]*Handler),
		mps:      make(map[string]*Microprotocol),
		drained:  make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name reports the stack's name.
func (s *Stack) Name() string { return s.name }

// Controller returns the stack's concurrency controller.
func (s *Stack) Controller() Controller { return s.ctrl }

// Register adds a microprotocol to the stack. It panics on duplicate
// names, re-registration, or registration after sealing; all are
// construction-time programming errors.
func (s *Stack) Register(mps ...*Microprotocol) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed.Load() {
		panic(fmt.Sprintf("samoa: Register on stack %q after it sealed (epoch %d is live; use Reconfigure)",
			s.name, s.CurrentEpoch()))
	}
	for _, mp := range mps {
		if mp.stack != nil {
			panic(fmt.Sprintf("samoa: microprotocol %s already registered", mp.name))
		}
		if _, dup := s.mps[mp.name]; dup {
			panic(fmt.Sprintf("samoa: duplicate microprotocol name %q", mp.name))
		}
		mp.stack = s
		s.mps[mp.name] = mp
	}
}

// MP returns the registered microprotocol with the given name, or nil.
func (s *Stack) MP(name string) *Microprotocol {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mps[name]
}

// Bind binds handlers to an event type, in order. Triggering an event of
// type et requests execution of every bound handler. Bind panics if the
// stack is sealed or a handler's microprotocol is not registered.
func (s *Stack) Bind(et *EventType, hs ...*Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed.Load() {
		names := make([]string, len(hs))
		for i, h := range hs {
			names[i] = h.String()
		}
		panic(fmt.Sprintf("samoa: Bind %q → [%s] on stack %q after its first computation sealed the binding table (epoch %d is live; use Reconfigure, or Rebind while quiescent)",
			et.Name(), strings.Join(names, " "), s.name, s.CurrentEpoch()))
	}
	s.bindLocked(et, hs)
}

// Rebind replaces the handlers bound to an event type. It implements the
// paper's future-work dynamic-binding extension under the paper's own
// restriction: handlers "cannot be (re)bound inside any computation", so
// Rebind fails with ErrActiveComputations unless the stack is quiescent.
// On success the new binding table is republished atomically.
func (s *Stack) Rebind(et *EventType, hs ...*Handler) error {
	s.mu.Lock()
	if s.active.Load() > 0 {
		s.mu.Unlock()
		return ErrActiveComputations
	}
	delete(s.bindings, et)
	s.bindLocked(et, hs)
	var old *epochSnap
	if s.sealed.Load() {
		old = s.installLocked(EpochChange{})
	}
	s.mu.Unlock()
	s.maybeRetire(old)
	return nil
}

func (s *Stack) bindLocked(et *EventType, hs []*Handler) {
	for _, h := range hs {
		if h.mp.stack != s {
			panic(fmt.Sprintf("samoa: handler %s bound on a stack its microprotocol is not registered with", h))
		}
		s.bindings[et] = append(s.bindings[et], h)
	}
}

// installLocked publishes the binding table as a fresh epoch and returns
// the epoch it superseded (nil at seal time). The controller's version
// slots are updated (InstallEpoch) before the pointer swap, so a
// replacement already continues its predecessor's slot when the first
// computation pins the epoch. The old
// epoch is marked superseded right before the swap, so the pin protocol's
// increment-then-recheck and exitEpoch's superseded check together
// guarantee the old epoch's retirement fires exactly once its last
// computation exits; callers must invoke maybeRetire(old) after releasing
// s.mu to cover the already-quiescent case. Callers hold s.mu.
func (s *Stack) installLocked(ch EpochChange) *epochSnap {
	old := s.snap.Load()
	n := uint64(1)
	if old != nil {
		n = old.n + 1
	}
	bindings := make(map[*EventType][]*Handler, len(s.bindings))
	for et, hs := range s.bindings {
		out := make([]*Handler, len(hs))
		copy(out, hs)
		bindings[et] = out
	}
	mps := make(map[*Microprotocol]bool, len(s.mps))
	for _, mp := range s.mps {
		mps[mp] = true
	}
	ep := &epochSnap{n: n, bindings: bindings, mps: mps, drained: make(chan struct{})}
	s.history = append(s.history, ep)
	if old != nil {
		ch.Epoch = n
		old.succ = ch
		if r, ok := s.ctrl.(Reconfigurer); ok {
			r.InstallEpoch(ch)
		}
		// The install has passed its commit point: a fault the hook
		// injects here is dropped, only the schedule it chose stands.
		_ = s.yieldSafe(nil, YieldInstall)
		old.superseded.Store(true)
	}
	s.snap.Store(ep)
	return old
}

// seal publishes the binding snapshot as epoch 1 on the first
// computation. After it returns, s.snap is non-nil and dispatch never
// touches s.mu again.
func (s *Stack) seal() {
	if s.sealed.Load() {
		return
	}
	s.mu.Lock()
	if !s.sealed.Load() {
		s.installLocked(EpochChange{})
		s.sealed.Store(true)
	}
	s.mu.Unlock()
}

// Bound returns the handlers currently bound to et, in bind order: the
// current epoch's once sealed. Dispatch inside a computation reads its
// pinned epoch instead (Computation.handlers).
func (s *Stack) Bound(et *EventType) []*Handler {
	if ep := s.snap.Load(); ep != nil {
		return append([]*Handler{}, ep.bindings[et]...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Handler{}, s.bindings[et]...)
}

func (s *Stack) isSealed() bool { return s.sealed.Load() }

// Isolated spawns a new computation — the Go rendering of the paper's
// "isolated M e" — and runs root as its root expression. The spec declares
// what the computation may touch; the stack's controller enforces it and
// schedules the computation so the isolation property holds.
//
// Isolated returns after the computation completes: the root expression
// returned and every thread it transitively created (forks, asynchronous
// handler executions) terminated. It returns the first error recorded by
// the computation: a spec violation, or an error returned by root or by
// any handler.
//
// Under a rollback-based controller (core.Restorer, e.g. cc.WaitDie) a
// computation may be aborted and transparently re-executed; root and the
// handlers it reaches then run more than once, so their effects must be
// confined to microprotocol state the controller can restore.
//
// Faults are contained (DESIGN.md §10): a panic anywhere in the
// computation — root, handler body, forked thread — aborts only that
// computation, surfaces as a *PanicError, and still drives the
// controller's end protocol so every claimed version is released.
func (s *Stack) Isolated(spec *Spec, root func(ctx *Context) error) error {
	return s.IsolatedCtx(context.Background(), spec, root)
}

// IsolatedCtx is Isolated bounded by a context. The spec is decided
// against the epoch the computation pins: a Derive request resolves to
// that epoch's spec, and a hand-written spec naming a microprotocol
// outside that epoch is refused with a *ReconfiguredError before the
// controller sees it. When ctx is cancelled or its deadline expires, the
// computation stops issuing handler calls, blocked admission waits
// abandon with a *DeadlineError, and the controller releases the
// computation's claims so waiters behind it proceed. Spec.WithTimeout
// composes with ctx — whichever expires first wins. Cancellation is
// cooperative between handler calls: a handler body already running is
// not interrupted (poll Context.Computation().Ctx() inside long-running
// bodies).
func (s *Stack) IsolatedCtx(ctx context.Context, spec *Spec, root func(ctx *Context) error) error {
	s.seal()
	ep := s.pin()
	s.active.Add(1)
	defer s.exitActive(ep)
	if s.closed.Load() {
		return ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if d := spec.Timeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	var err error
	if spec.derive != nil {
		spec, err = ep.resolve(spec.derive)
	} else {
		err = ep.admits(spec)
	}
	if err != nil {
		return err
	}
	var retryToken Token
	for {
		err, retry, next := s.attempt(ctx, ep, spec, root, retryToken)
		if retry {
			retryToken = next
			continue
		}
		return err
	}
}

// beginLeg / endLeg book one controller lifecycle leg, globally (for
// Close) and on the computation's pinned epoch (for retirement).
func (s *Stack) beginLeg(ep *epochSnap) {
	s.begun.Add(1)
	ep.begun.Add(1)
}

func (s *Stack) endLeg(ep *epochSnap) {
	s.ended.Add(1)
	ep.ended.Add(1)
}

// attempt runs one execution attempt of a computation. It owns the
// controller end protocol for the attempt's token: every path that
// acquires (or inherits) a token ends it via Complete or hands it to
// PrepareRetry, panics included — the invariant Close's lifecycle check
// verifies.
func (s *Stack) attempt(ctx context.Context, ep *epochSnap, spec *Spec, root func(ctx *Context) error, retryToken Token) (err error, retry bool, next Token) {
	if yerr := s.yieldSafe(nil, YieldSpawn); yerr != nil {
		// The hook faulted before Spawn: no token exists yet, unless this
		// is a retry attempt whose inherited token must still be retired.
		if retryToken != nil {
			s.ctrl.Complete(retryToken)
			s.endLeg(ep)
		}
		return yerr, false, nil
	}
	token := retryToken
	if token == nil {
		if cerr := ctx.Err(); cerr != nil {
			return &DeadlineError{Stage: "spawn", Err: cerr}, false, nil
		}
		var serr error
		if token, serr = s.ctrl.Spawn(ctx, spec); serr != nil {
			return serr, false, nil
		}
		s.beginLeg(ep)
	} else if cerr := ctx.Err(); cerr != nil {
		s.ctrl.Complete(token)
		s.endLeg(ep)
		return &DeadlineError{Stage: "spawn", Err: cerr}, false, nil
	}
	comp := &Computation{
		id:    s.compSeq.Add(1),
		stack: s,
		epoch: ep,
		token: token,
		spec:  spec,
		ctx:   ctx,
	}
	s.tracer.Spawned(comp.id, spec)

	if root != nil {
		comp.record(s.callRoot(comp, root))
	}
	s.waitInv(&comp.rootInv)
	s.ctrl.RootReturned(token)
	s.waitComp(comp)

	err = comp.firstErr()
	if errors.Is(err, ErrComputationAborted) {
		if r, ok := s.ctrl.(Restorer); ok {
			if nextTok, ok2 := r.PrepareRetry(token); ok2 {
				s.tracer.Aborted(comp.id)
				// The retired token ends one lifecycle leg; the accepted
				// retry begins the next.
				s.endLeg(ep)
				s.beginLeg(ep)
				return nil, true, nextTok
			}
			s.tracer.Aborted(comp.id)
			// PrepareRetry declined and cleaned up: the token is retired.
			s.endLeg(ep)
			return err, false, nil
		}
	}
	if yerr := s.yieldSafe(comp, YieldComplete); yerr != nil && err == nil {
		err = yerr
	}
	s.ctrl.Complete(token)
	s.endLeg(ep)
	s.tracer.Completed(comp.id)
	return err, false, nil
}

// callRoot runs the root expression under recover, so a panicking root
// aborts its computation instead of unwinding past the end protocol.
func (s *Stack) callRoot(comp *Computation, root func(ctx *Context) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{
				Stack:       s.name,
				Handler:     "<root>",
				Computation: comp.id,
				Value:       v,
				Trace:       debug.Stack(),
			}
		}
	}()
	return root(&Context{comp: comp, inv: &comp.rootInv})
}

// yieldSafe announces a yield point to the hook, converting a hook panic
// (the chaos harness injects faults there) into the computation error it
// simulates. Production stacks have no hook and pay one nil check.
func (s *Stack) yieldSafe(comp *Computation, p YieldPoint) (err error) {
	hk := s.hook
	if hk == nil {
		return nil
	}
	defer func() {
		if v := recover(); v != nil {
			pe := &PanicError{Stack: s.name, Handler: "<hook>", Value: v, Trace: debug.Stack()}
			if comp != nil {
				pe.Computation = comp.id
				comp.record(pe)
			}
			err = pe
		}
	}()
	hk.Yield(p)
	return nil
}

// exitActive retires one active computation — first from its pinned
// epoch (possibly completing that epoch's retirement), then from the
// global count, completing the drain when it was the last one a closing
// stack was waiting for.
func (s *Stack) exitActive(ep *epochSnap) {
	s.exitEpoch(ep)
	if s.active.Add(-1) == 0 && s.closed.Load() {
		s.drainOnce.Do(func() { close(s.drained) })
	}
}

// Close gracefully drains the stack: new computations are rejected with
// ErrClosed, in-flight ones run to completion (bound their wait with
// CloseContext or per-spec timeouts), and the controller lifecycle is
// verified — every computation that began must have ended, or Close
// returns a *LifecycleError identifying the leak. Close is idempotent and
// safe to call concurrently; every call waits for the drain.
func (s *Stack) Close() error { return s.CloseContext(context.Background()) }

// CloseContext is Close bounded by a context; it returns a *DeadlineError
// with Stage "drain" when ctx expires before the in-flight computations
// finish (the stack stays closed and keeps draining in the background).
func (s *Stack) CloseContext(ctx context.Context) error {
	s.closed.Store(true)
	if s.active.Load() == 0 {
		s.drainOnce.Do(func() { close(s.drained) })
	}
	select {
	case <-s.drained:
	case <-ctx.Done():
		return &DeadlineError{Stage: "drain", Err: ctx.Err()}
	}
	if b, e := s.begun.Load(), s.ended.Load(); b != e {
		return &LifecycleError{Begun: b, Ended: e}
	}
	return nil
}

// Closed reports whether Close has begun.
func (s *Stack) Closed() bool { return s.closed.Load() }

// waitInv blocks until every thread forked by the invocation terminated.
// Under a hook, the join is announced first so a deterministic scheduler
// can run the forked tasks to completion; the native Wait then returns
// without a scheduling dependency.
func (s *Stack) waitInv(inv *invocation) {
	if s.hook != nil {
		s.hook.WaitTasks(inv)
	}
	inv.forks.Wait()
}

// waitComp blocks until every asynchronous handler execution of the
// computation terminated (same hook protocol as waitInv).
func (s *Stack) waitComp(c *Computation) {
	if s.hook != nil {
		s.hook.WaitTasks(c)
	}
	c.wg.Wait()
}

// IsolatedAsync spawns the computation from a fresh goroutine and returns
// immediately; the returned channel yields the computation's result once.
//
// A computation must never spawn another one synchronously from inside a
// handler: the paper's model has causally *caused* computations start as
// new external events, and a nested synchronous Isolated would deadlock
// under Serial or whenever the specs overlap (the parent cannot release
// what the child waits for). Use IsolatedAsync for caused computations,
// timer-driven computations, and network receive loops.
func (s *Stack) IsolatedAsync(spec *Spec, root func(ctx *Context) error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.Isolated(spec, root) }()
	return done
}

// External is a convenience for the common pattern of the paper §4 — a
// computation whose root expression triggers a single event, e.g.
// "isolated [relComm relCast ...] { trigger FromNet m }".
func (s *Stack) External(spec *Spec, et *EventType, msg Message) error {
	return s.Isolated(spec, func(ctx *Context) error {
		return ctx.Trigger(et, msg)
	})
}

// ExternalAll is External with TriggerAll as the root expression.
func (s *Stack) ExternalAll(spec *Spec, et *EventType, msg Message) error {
	return s.Isolated(spec, func(ctx *Context) error {
		return ctx.TriggerAll(et, msg)
	})
}
