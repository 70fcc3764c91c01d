package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// epochSnap is one installed configuration of a stack: an immutable
// binding table plus the drain accounting of every computation pinned to
// it. The paper's static-binding assumption holds *within* an epoch —
// dispatch over a published epoch is lock-free and allocation-free — and
// live reconfiguration is modelled as a sequence of epochs: Reconfigure
// installs epoch N+1 with a pointer swap, computations already running
// keep dispatching against epoch N's table, and epoch N is retired once
// its last computation exits.
type epochSnap struct {
	n        uint64
	bindings map[*EventType][]*Handler
	mps      map[*Microprotocol]bool // the epoch's microprotocols (admits)
	derived  sync.Map                // *derivation → *Spec resolved against bindings (resolve)

	// active counts computations currently pinned to this epoch; begun and
	// ended count its controller lifecycle legs, so retirement can verify
	// the same balance Stack.Close verifies globally.
	active atomic.Int64
	begun  atomic.Uint64
	ended  atomic.Uint64

	// superseded is set once a newer epoch has been installed; retirement
	// requires superseded && active == 0. retired marks the epoch dead —
	// dispatch into a retired epoch is counted as a bug by the dead-epoch
	// probe. drained closes at retirement (or, for the final epoch, never).
	superseded atomic.Bool
	retired    atomic.Bool
	drained    chan struct{}
	retireOnce sync.Once

	// succ describes the reconfiguration that superseded this epoch; it is
	// what the controller's RetireEpoch receives once the epoch drains.
	succ EpochChange
}

// EpochChange describes one reconfiguration to the stack's controller:
// the number of the newly installed epoch and the microprotocols the edit
// added, removed, and replaced. Controllers that keep per-microprotocol
// state (the version tables) implement Reconfigurer to retire removed
// slots, admit added ones, and thread replacements onto their
// predecessor's version chain.
type EpochChange struct {
	Epoch    uint64
	Added    []*Microprotocol
	Removed  []*Microprotocol
	Replaced []ReplacedMP
}

// ReplacedMP is one Epoch.Replace pair. Replacement is stronger than
// remove-plus-add: the new microprotocol inherits the old one's isolation
// identity, so computations of the old epoch still using Old serialize
// against new-epoch computations using New — the two versions may share
// state across the swap without a race. Epoch-aware controllers implement
// this by continuing Old's version slot under New.
type ReplacedMP struct {
	Old, New *Microprotocol
}

// Reconfigurer is the optional Controller interface for epoch-aware
// controllers. InstallEpoch runs synchronously inside Reconfigure, before
// the new epoch is published, so no computation has pinned it yet: the
// controller continues each replaced microprotocol's state under its
// successor. It need not guard removed microprotocols — the stack refuses
// a spec naming a microprotocol outside the computation's pinned epoch
// before Spawn. RetireEpoch runs once the old epoch's last computation
// has exited: the controller drains removed slots to quiescence (lv ==
// gv) and may drop what only the old epoch could use — the change it
// receives leaves out removed microprotocols the live epoch has
// re-added, whose slots are in use again; a non-nil error is
// recorded and surfaces from Stack.EpochErrs.
type Reconfigurer interface {
	InstallEpoch(EpochChange)
	RetireEpoch(EpochChange) error
}

// EpochStat is one epoch's drain accounting, for observability and the
// chaos harness's balance assertions.
type EpochStat struct {
	Epoch        uint64
	Begun, Ended uint64
	Active       int64
	Superseded   bool
	Retired      bool
}

// Epoch is the mutable clone of a stack's configuration that a
// Reconfigure edit operates on. All methods record validation errors on
// the epoch instead of panicking — a failed edit aborts the
// reconfiguration with the joined errors and leaves the live stack
// untouched. An Epoch is only valid inside its edit function.
type Epoch struct {
	stack    *Stack
	n        uint64
	bindings map[*EventType][]*Handler
	mps      map[string]*Microprotocol
	repl     []ReplacedMP
	errs     []error
}

// newEpochLocked clones the current configuration. Callers hold s.mu.
func (s *Stack) newEpochLocked() *Epoch {
	e := &Epoch{
		stack:    s,
		n:        s.snap.Load().n + 1,
		bindings: make(map[*EventType][]*Handler, len(s.bindings)),
		mps:      make(map[string]*Microprotocol, len(s.mps)),
	}
	for et, hs := range s.bindings {
		e.bindings[et] = append([]*Handler(nil), hs...)
	}
	for name, mp := range s.mps {
		e.mps[name] = mp
	}
	return e
}

func (e *Epoch) fail(format string, args ...any) {
	e.errs = append(e.errs, fmt.Errorf("samoa: epoch %d edit: "+format, append([]any{e.n}, args...)...))
}

// MP returns the microprotocol with the given name in this epoch, or nil.
func (e *Epoch) MP(name string) *Microprotocol { return e.mps[name] }

// Register adds microprotocols to the epoch. A microprotocol registered
// with another stack, or a duplicate name, is a validation error.
func (e *Epoch) Register(mps ...*Microprotocol) {
	for _, mp := range mps {
		if mp == nil {
			e.fail("Register nil microprotocol")
			continue
		}
		if mp.stack != nil && mp.stack != e.stack {
			e.fail("microprotocol %s is registered with another stack", mp.name)
			continue
		}
		if _, dup := e.mps[mp.name]; dup {
			e.fail("duplicate microprotocol name %q", mp.name)
			continue
		}
		e.mps[mp.name] = mp
	}
}

// Remove deletes a microprotocol from the epoch and strips every binding
// of its handlers. Computations pinned to earlier epochs keep running
// against it; the controller drains and retires its version slot after
// the old epoch's last computation exits.
func (e *Epoch) Remove(name string) {
	mp := e.mps[name]
	if mp == nil {
		e.fail("Remove %q: no such microprotocol", name)
		return
	}
	delete(e.mps, name)
	for et, hs := range e.bindings {
		out := hs[:0]
		for _, h := range hs {
			if h.mp != mp {
				out = append(out, h)
			}
		}
		if len(out) == 0 {
			delete(e.bindings, et)
		} else {
			e.bindings[et] = out
		}
	}
}

// Replace substitutes next for the named microprotocol, rewriting every
// binding slot in place: a bound handler of the old microprotocol is
// replaced by next's handler of the same name, preserving bind order —
// the upgrade idiom. next must provide a handler for every bound handler
// of the old microprotocol.
//
// Replace preserves isolation identity: epoch-aware controllers continue
// the old microprotocol's version chain under next (see ReplacedMP), so
// in-flight computations of the superseded epoch serialize against
// new-epoch computations even when the two versions share state. Remove
// followed by Register gives the replacement a fresh, independent slot
// instead.
func (e *Epoch) Replace(name string, next *Microprotocol) {
	old := e.mps[name]
	if old == nil {
		e.fail("Replace %q: no such microprotocol", name)
		return
	}
	if next == nil {
		e.fail("Replace %q with nil microprotocol", name)
		return
	}
	if next.stack != nil && next.stack != e.stack {
		e.fail("Replace %q: %s is registered with another stack", name, next.name)
		return
	}
	if cur, dup := e.mps[next.name]; dup && cur != old {
		e.fail("Replace %q: name %q already registered", name, next.name)
		return
	}
	for _, hs := range e.bindings {
		for i, h := range hs {
			if h.mp != old {
				continue
			}
			nh := next.Handler(h.name)
			if nh == nil {
				e.fail("Replace %q: replacement %s has no handler %q", name, next.name, h.name)
				return
			}
			hs[i] = nh
		}
	}
	delete(e.mps, name)
	e.mps[next.name] = next
	e.repl = append(e.repl, ReplacedMP{Old: old, New: next})
}

// Bind appends handlers to an event type's binding, in order. Handlers
// must belong to microprotocols present in this epoch.
func (e *Epoch) Bind(et *EventType, hs ...*Handler) {
	if et == nil {
		e.fail("Bind nil event type")
		return
	}
	for _, h := range hs {
		if h == nil {
			e.fail("Bind %q: nil handler", et.Name())
			continue
		}
		if e.mps[h.mp.name] != h.mp {
			e.fail("Bind %q: handler %s's microprotocol is not in this epoch", et.Name(), h)
			continue
		}
		e.bindings[et] = append(e.bindings[et], h)
	}
}

// Rebind replaces the handlers bound to the event type; with no handlers
// it unbinds the event.
func (e *Epoch) Rebind(et *EventType, hs ...*Handler) {
	if et == nil {
		e.fail("Rebind nil event type")
		return
	}
	delete(e.bindings, et)
	e.Bind(et, hs...)
}

// Bound returns the handlers bound to et in this epoch, in bind order.
func (e *Epoch) Bound(et *EventType) []*Handler {
	return append([]*Handler(nil), e.bindings[et]...)
}

// validate checks the edited configuration as a whole: recorded edit
// errors, plus every binding resolving to a registered microprotocol.
func (e *Epoch) validate() error {
	for et, hs := range e.bindings {
		for _, h := range hs {
			if e.mps[h.mp.name] != h.mp {
				e.fail("event %q bound to %s, whose microprotocol is not in this epoch", et.Name(), h)
			}
		}
	}
	return errors.Join(e.errs...)
}

// diffLocked computes the EpochChange relative to the stack's current
// registration, by identity: plain additions and removals, with Replace
// pairs — the old side leaving and the new side arriving — reported as
// Replaced instead of as a remove plus an add. Callers hold s.mu.
func (e *Epoch) diffLocked() EpochChange {
	ch := EpochChange{Epoch: e.n}
	out := map[*Microprotocol]bool{}
	in := map[*Microprotocol]bool{}
	for name, mp := range e.stack.mps {
		if e.mps[name] != mp {
			out[mp] = true
		}
	}
	for name, mp := range e.mps {
		if e.stack.mps[name] != mp {
			in[mp] = true
		}
	}
	for _, r := range e.repl {
		if out[r.Old] && in[r.New] {
			ch.Replaced = append(ch.Replaced, r)
			delete(out, r.Old)
			delete(in, r.New)
		}
	}
	for mp := range out {
		ch.Removed = append(ch.Removed, mp)
	}
	for mp := range in {
		ch.Added = append(ch.Added, mp)
	}
	return ch
}

// Reconfigure atomically installs a new configuration epoch on a live
// stack: edit receives a mutable clone of the current epoch to
// add/remove/replace microprotocols and rebind events; the result is
// validated and, if sound, published with one pointer swap. Computations
// already running keep dispatching against their pinned epoch and the old
// epoch retires — drain-accounted, controller notified — once its last
// computation exits; new computations land on the new epoch immediately.
// Trigger dispatch stays lock-free and allocation-free throughout.
//
// Reconfigure returns once the new epoch is installed, without waiting
// for the old epoch to drain; EpochDrained(n-1), with n the edited
// epoch's Number, closes once it has. A failed validation, a panicking
// edit, or a stack that is (or concurrently becomes) closed leaves the
// live configuration untouched; the commit-point check makes a racing
// Close win deterministically.
func (s *Stack) Reconfigure(edit func(*Epoch)) error {
	if edit == nil {
		return errors.New("samoa: Reconfigure with nil edit")
	}
	s.seal()
	if err := s.yieldSafe(nil, YieldReconfigure); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	ep := s.newEpochLocked()
	var editErr error
	func() {
		defer func() {
			if v := recover(); v != nil {
				editErr = &PanicError{Stack: s.name, Handler: "<reconfigure>", Value: v, Trace: debug.Stack()}
			}
		}()
		edit(ep)
	}()
	if editErr == nil {
		editErr = ep.validate()
	}
	if editErr != nil {
		s.mu.Unlock()
		return editErr
	}
	ch := ep.diffLocked()
	// Commit point: a Close that has begun by now wins — the install is
	// abandoned with the live configuration untouched.
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	for _, mp := range ch.Added {
		mp.stack = s
	}
	for _, r := range ch.Replaced {
		r.New.stack = s
	}
	s.bindings = ep.bindings
	s.mps = ep.mps
	old := s.installLocked(ch)
	s.mu.Unlock()
	s.maybeRetire(old)
	return nil
}

// pin selects the epoch a new computation runs against: the current one,
// re-checked after the active increment so that an epoch observed to be
// superseded is never pinned — the increment-then-recheck makes
// retirement ("active reached zero after supersession") imply no
// computation can still dispatch into the epoch. Supersession precedes
// the successor's publication, so the recheck also covers the instant
// between the two.
func (s *Stack) pin() *epochSnap {
	for {
		ep := s.snap.Load()
		ep.active.Add(1)
		if !ep.superseded.Load() {
			return ep
		}
		s.exitEpoch(ep) // lost the race with an install: unpin and retry
	}
}

// exitEpoch retires one pinned computation and completes the epoch's
// retirement when it was the last one a superseded epoch was waiting for.
func (s *Stack) exitEpoch(ep *epochSnap) {
	if ep.active.Add(-1) == 0 && ep.superseded.Load() {
		s.retireEpoch(ep)
	}
}

// maybeRetire retires ep if it is already quiescent — the installer's
// half of the retirement race (exitEpoch is the other; retireOnce
// arbitrates).
func (s *Stack) maybeRetire(ep *epochSnap) {
	if ep != nil && ep.superseded.Load() && ep.active.Load() == 0 {
		s.retireEpoch(ep)
	}
}

// retireEpoch finishes a superseded epoch exactly once: the controller
// drains and retires removed slots, the epoch's lifecycle balance is
// verified, and the epoch is marked dead. A removed microprotocol the
// live epoch has re-added is left out of the controller's change: its
// slot is in use again, and a later removal's retirement drains it. Any
// violation is recorded for EpochErrs — retirement runs asynchronously
// (on the exiting computation's goroutine or the reconfigurer's), so
// there is no caller to return it to.
func (s *Stack) retireEpoch(ep *epochSnap) {
	ep.retireOnce.Do(func() {
		if r, ok := s.ctrl.(Reconfigurer); ok {
			ch, live := ep.succ, s.snap.Load()
			readded := func(mp *Microprotocol) bool { return live.mps[mp] }
			if slices.ContainsFunc(ch.Removed, readded) {
				ch.Removed = slices.DeleteFunc(slices.Clone(ch.Removed), readded)
			}
			if err := r.RetireEpoch(ch); err != nil {
				s.recordEpochErr(fmt.Errorf("samoa: retiring epoch %d: %w", ep.n, err))
			}
		}
		if b, e := ep.begun.Load(), ep.ended.Load(); b != e {
			s.recordEpochErr(&LifecycleError{Epoch: ep.n, Begun: b, Ended: e})
		}
		ep.retired.Store(true)
		close(ep.drained)
	})
}

func (s *Stack) recordEpochErr(err error) {
	s.epochMu.Lock()
	s.epochErrs = append(s.epochErrs, err)
	s.epochMu.Unlock()
}

// CurrentEpoch reports the number of the epoch new computations land on:
// 0 before the stack seals, 1 after sealing, +1 per reconfiguration.
func (s *Stack) CurrentEpoch() uint64 {
	if ep := s.snap.Load(); ep != nil {
		return ep.n
	}
	return 0
}

// EpochStats returns the drain accounting of every epoch the stack has
// installed, oldest first — retired epochs must show Begun == Ended and
// Active == 0 (the chaos harness asserts exactly that).
func (s *Stack) EpochStats() []EpochStat {
	s.mu.Lock()
	hist := append([]*epochSnap(nil), s.history...)
	s.mu.Unlock()
	out := make([]EpochStat, len(hist))
	for i, ep := range hist {
		out[i] = EpochStat{
			Epoch:      ep.n,
			Begun:      ep.begun.Load(),
			Ended:      ep.ended.Load(),
			Active:     ep.active.Load(),
			Superseded: ep.superseded.Load(),
			Retired:    ep.retired.Load(),
		}
	}
	return out
}

// EpochDrained returns a channel closed once the given epoch has retired
// (nil if the stack never installed that epoch). The current epoch's
// channel closes only after a later reconfiguration supersedes and drains
// it.
func (s *Stack) EpochDrained(epoch uint64) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ep := range s.history {
		if ep.n == epoch {
			return ep.drained
		}
	}
	return nil
}

// EpochErrs returns every error recorded during epoch retirement —
// controller retire failures and per-epoch lifecycle imbalances. Empty in
// a healthy run.
func (s *Stack) EpochErrs() []error {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return append([]error(nil), s.epochErrs...)
}

// DeadEpochDispatches counts handler lookups made by a computation whose
// epoch had already retired — the runtime probe for the "no dispatch into
// a dead epoch" invariant. Always zero unless the epoch pin protocol is
// broken.
func (s *Stack) DeadEpochDispatches() uint64 { return s.deadDispatch.Load() }
