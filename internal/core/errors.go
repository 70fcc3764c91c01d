package core

import (
	"errors"
	"fmt"
	"strings"
)

// ErrActiveComputations is returned by Stack.Rebind while computations are
// in flight: the paper forbids rebinding inside computations.
var ErrActiveComputations = errors.New("samoa: rebind while computations are active")

// ErrComputationAborted is produced by rollback-based controllers (the
// paper's "timestamp-ordering algorithms with rollback/recovery" group,
// cc.WaitDie) when a computation must be undone and re-executed. It
// propagates out of triggers like any error; handlers should return it
// unchanged. Isolated re-runs the computation transparently when the
// controller asks for a retry, so callers normally never see it.
var ErrComputationAborted = errors.New("samoa: computation aborted for retry")

// ErrClosed is returned by Isolated/External once Stack.Close has begun:
// the stack rejects new computations while draining the in-flight ones.
var ErrClosed = errors.New("samoa: stack closed")

// PanicError reports a panic recovered inside a computation — in a handler
// body, the root expression, a forked thread, or a scheduling hook. The
// panic aborts only its own computation: the runtime converts it into this
// error, drives the controller's end protocol so every claimed resource is
// released, and returns it from Isolated/External. Value preserves the
// original panic value and Trace the goroutine stack at recovery.
type PanicError struct {
	Stack       string // stack name
	Handler     string // "mp.handler", or "<root>" / "<fork>" / "<hook>"
	Event       string // event type being dispatched ("" outside dispatch)
	Computation uint64 // computation ID
	Value       any    // the value passed to panic
	Trace       []byte // debug.Stack() at the recovery point
}

func (e *PanicError) Error() string {
	if e.Event != "" {
		return fmt.Sprintf("samoa: panic in %s handling %q (computation %d, stack %q): %v",
			e.Handler, e.Event, e.Computation, e.Stack, e.Value)
	}
	return fmt.Sprintf("samoa: panic in %s (computation %d, stack %q): %v",
		e.Handler, e.Computation, e.Stack, e.Value)
}

// Unwrap exposes the panic value when it was itself an error, so callers
// can errors.Is/As through a recovered panic(err). ErrComputationAborted
// is deliberately not unwrapped: a panic is a fault, never a retry signal.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok && !errors.Is(err, ErrComputationAborted) {
		return err
	}
	return nil
}

// DeadlineError reports a computation cut short by its context: the
// deadline of Spec.WithTimeout expired, or the caller's IsolatedCtx
// context was cancelled. Stage says where the computation was stopped.
type DeadlineError struct {
	Stage   string // "spawn", "enter", "dispatch", or "drain"
	Handler string // handler awaiting admission ("" outside Enter)
	Err     error  // the context's error (DeadlineExceeded or Canceled)
}

func (e *DeadlineError) Error() string {
	if e.Handler != "" {
		return fmt.Sprintf("samoa: computation cancelled at %s of %s: %v", e.Stage, e.Handler, e.Err)
	}
	return fmt.Sprintf("samoa: computation cancelled at %s: %v", e.Stage, e.Err)
}

// Unwrap exposes the context error, so errors.Is(err,
// context.DeadlineExceeded) works through a DeadlineError.
func (e *DeadlineError) Unwrap() error { return e.Err }

// LifecycleError reports an unbalanced controller protocol discovered by
// Stack.Close — or, when Epoch is non-zero, by the retirement of that
// configuration epoch: the number of computations that began (Spawn or an
// accepted retry) differs from the number that ended (Complete or a
// retired retry token). A non-zero difference means a controller leaked
// or double-freed per-computation state.
type LifecycleError struct {
	Epoch uint64 // 0: the global close-time check
	Begun uint64
	Ended uint64
}

func (e *LifecycleError) Error() string {
	if e.Epoch != 0 {
		return fmt.Sprintf("samoa: lifecycle imbalance retiring epoch %d: %d computations begun, %d ended", e.Epoch, e.Begun, e.Ended)
	}
	return fmt.Sprintf("samoa: lifecycle imbalance on close: %d computations begun, %d ended", e.Begun, e.Ended)
}

// ReconfiguredError reports a computation refused before it started
// because its hand-written spec names a microprotocol outside the epoch
// the computation pinned: one a live reconfiguration removed or replaced
// at or before that epoch, or one a later epoch added. Callers racing a
// reconfiguration should rebuild their spec against the new epoch and
// retry — or declare it with Derive, which never goes stale.
type ReconfiguredError struct {
	MP    string // the microprotocol outside the epoch
	Epoch uint64 // the epoch the computation pinned
}

func (e *ReconfiguredError) Error() string {
	return fmt.Sprintf("samoa: microprotocol %s is not part of epoch %d (reconfigured); rebuild the spec and retry", e.MP, e.Epoch)
}

// DeriveError reports a computation refused before it started because
// its Derive request reaches a handler that never declared Emits: the
// derived spec could silently miss what that handler triggers.
type DeriveError struct {
	Handler string // "microprotocol.handler"
}

func (e *DeriveError) Error() string {
	return fmt.Sprintf("samoa: derived spec reaches handler %s, which declares no Emits (call Emits() on a handler that triggers nothing)", e.Handler)
}

// UnboundError reports a trigger of an event type with no bound handler.
type UnboundError struct {
	Event string // event type name
}

func (e *UnboundError) Error() string {
	return fmt.Sprintf("samoa: no handler bound to event %q", e.Event)
}

// AmbiguousError reports Trigger/AsyncTrigger of an event type bound to
// more than one handler; the single-handler constructs mirror the paper's
// "trigger", which calls a (single) handler.
type AmbiguousError struct {
	Event string
	N     int // number of bound handlers
}

func (e *AmbiguousError) Error() string {
	return fmt.Sprintf("samoa: event %q bound to %d handlers; use TriggerAll", e.Event, e.N)
}

// UndeclaredError reports a computation calling a handler of a
// microprotocol that is not in its declared collection M (paper §4: "An
// error exception is thrown in the thread that called isolated").
// Declared lists the spec's microprotocol names so the message points
// at the fix: add MP to the spec, or stop reaching the handler.
type UndeclaredError struct {
	MP       string   // microprotocol name
	Handler  string   // handler name
	Declared []string // the computation's declared microprotocol names
}

func (e *UndeclaredError) Error() string {
	if len(e.Declared) > 0 {
		return fmt.Sprintf("samoa: handler %s.%s not declared in the computation's spec — microprotocol %s is missing from [%s]",
			e.MP, e.Handler, e.MP, strings.Join(e.Declared, " "))
	}
	return fmt.Sprintf("samoa: handler %s.%s not declared in the computation's spec", e.MP, e.Handler)
}

// BoundExhaustedError reports a computation exceeding the least upper
// bound it declared for a microprotocol (paper §4, "isolated bound M e").
type BoundExhaustedError struct {
	MP    string
	Bound int
}

func (e *BoundExhaustedError) Error() string {
	return fmt.Sprintf("samoa: visit bound %d for microprotocol %s exhausted", e.Bound, e.MP)
}

// NoRouteError reports a handler call with no declared route in the
// computation's routing pattern (paper §4, "isolated route M e"). From is
// empty when the undeclared call was made directly by the computation's
// root expression.
type NoRouteError struct {
	From string // calling handler ("" for the root expression)
	To   string // called handler
}

func (e *NoRouteError) Error() string {
	from := e.From
	if from == "" {
		from = "<root>"
	}
	return fmt.Sprintf("samoa: no route from %s to %s in the computation's routing pattern", from, e.To)
}

// ReadOnlyViolationError reports a computation admitted as a reader of a
// microprotocol calling one of its non-read-only handlers (the §7
// isolation-level extension, cc.VCARW).
type ReadOnlyViolationError struct {
	MP      string
	Handler string
}

func (e *ReadOnlyViolationError) Error() string {
	return fmt.Sprintf("samoa: read-only computation called writing handler %s.%s", e.MP, e.Handler)
}

// SpecError reports an invalid Spec passed to Isolated (for example a
// bound-variant spec handed to the route controller, or a non-positive
// bound).
type SpecError struct {
	Controller string
	Reason     string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("samoa: invalid spec for controller %s: %s", e.Controller, e.Reason)
}
