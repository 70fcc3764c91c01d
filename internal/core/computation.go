package core

import (
	"context"
	"sync"
)

// Computation is the run-time identity of one execution of Isolated: the
// paper's computation, i.e. an external event together with everything
// causally dependent on it (§2). The framework tracks its threads so that
// "all threads of the computation terminated" — the trigger point for the
// controllers' completion rules — is well defined.
type Computation struct {
	id    uint64
	stack *Stack
	epoch *epochSnap // the configuration epoch this computation is pinned to
	token Token
	spec  *Spec
	ctx   context.Context // bounds the computation; context.Background() if unbounded

	// rootInv is the root expression's invocation, embedded so spawning
	// a computation does not allocate it separately.
	rootInv invocation

	// wg counts asynchronous handler executions; forks are counted by
	// their spawning invocation instead, because a handler's Exit must
	// wait for the threads the handler itself spawned (rule 4 of
	// VCAbound counts a handler as completed only then).
	wg sync.WaitGroup

	mu  sync.Mutex
	err error // first error recorded
}

// ID reports the computation's stack-unique identifier.
func (c *Computation) ID() uint64 { return c.id }

// Epoch reports the configuration epoch the computation is pinned to:
// its dispatch reads that epoch's binding table for its entire lifetime,
// even if a Reconfigure installs a successor mid-flight.
func (c *Computation) Epoch() uint64 { return c.epoch.n }

// handlers resolves an event type against the computation's pinned
// epoch — the dispatch-path twin of Stack.Bound. The retired check
// feeds the dead-epoch probe: a pinned epoch can never retire while the
// computation is active, so a hit means the pin protocol is broken.
func (c *Computation) handlers(et *EventType) []*Handler {
	if c.epoch.retired.Load() {
		c.stack.deadDispatch.Add(1)
	}
	return c.epoch.bindings[et]
}

// Spec reports the spec the computation was spawned with.
func (c *Computation) Spec() *Spec { return c.spec }

// ctxErr converts an expired computation context into the *DeadlineError
// the dispatch path records before a handler call. It is the cooperative
// half of cancellation: blocking waits inside controllers observe the
// context themselves, and this check stops a cancelled computation from
// issuing further calls between those waits.
func (c *Computation) ctxErr(h *Handler) error {
	if c.ctx == nil {
		return nil
	}
	select {
	case <-c.ctx.Done():
		name := "<root>"
		if h != nil {
			name = h.String()
		}
		return &DeadlineError{Stage: "dispatch", Handler: name, Err: c.ctx.Err()}
	default:
		return nil
	}
}

// record stores the first non-nil error of the computation.
func (c *Computation) record(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *Computation) firstErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// invocation is one execution of a handler (or of the root expression,
// with handler == nil). Forked threads attach here so the invocation can
// be considered complete only after they terminate.
type invocation struct {
	handler *Handler
	forks   sync.WaitGroup
}
