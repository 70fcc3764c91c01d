package core

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
)

// Context is passed to every handler execution and to the computation's
// root expression. It issues events and forks computation threads. A
// Context is only valid for the duration of the invocation it was passed
// to; handlers must not retain it.
type Context struct {
	comp *Computation
	inv  *invocation
}

// Computation returns the computation this context executes in.
func (c *Context) Computation() *Computation { return c.comp }

// Stack returns the stack this context executes on.
func (c *Context) Stack() *Stack { return c.comp.stack }

// Handler returns the handler this context was passed to, or nil in the
// computation's root expression.
func (c *Context) Handler() *Handler { return c.inv.handler }

// Ctx returns the context bounding this computation — the one passed to
// IsolatedCtx, further bounded by Spec.WithTimeout. Long-running handler
// bodies should poll it and return early once it is done.
func (c *Context) Ctx() context.Context { return c.comp.ctx }

// Trigger synchronously executes the single handler bound to et — the
// paper's "trigger" construct. It returns an UnboundError or
// AmbiguousError if not exactly one handler is bound, a controller error
// if the call violates the computation's spec, or the handler's own error.
// Every trigger form returns an EmitsError when the running handler
// declared Emits without et.
func (c *Context) Trigger(et *EventType, msg Message) error {
	if err := c.emitted(et); err != nil {
		return err
	}
	h, err := c.single(et)
	if err != nil {
		c.comp.record(err)
		return err
	}
	return c.comp.stack.callSync(c.comp, c.inv, et, h, msg)
}

// TriggerAll synchronously executes every handler bound to et, in bind
// order — the paper's "triggerAll". All bound handlers run even if an
// earlier one fails; the joined errors are returned.
func (c *Context) TriggerAll(et *EventType, msg Message) error {
	if err := c.emitted(et); err != nil {
		return err
	}
	hs := c.comp.handlers(et)
	var errs []error
	for _, h := range hs {
		if err := c.comp.stack.callSync(c.comp, c.inv, et, h, msg); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// AsyncTrigger requests asynchronous execution of the single handler bound
// to et. Spec violations detectable at request time are returned in the
// calling thread; errors from the handler itself are recorded on the
// computation and surface from Isolated.
func (c *Context) AsyncTrigger(et *EventType, msg Message) error {
	if err := c.emitted(et); err != nil {
		return err
	}
	h, err := c.single(et)
	if err != nil {
		c.comp.record(err)
		return err
	}
	return c.comp.stack.callAsync(c.comp, c.inv, et, h, msg)
}

// AsyncTriggerAll requests asynchronous execution of every handler bound
// to et — the paper's "asyncTriggerAll". Each handler runs in its own
// computation thread.
func (c *Context) AsyncTriggerAll(et *EventType, msg Message) error {
	if err := c.emitted(et); err != nil {
		return err
	}
	hs := c.comp.handlers(et)
	var errs []error
	for _, h := range hs {
		if err := c.comp.stack.callAsync(c.comp, c.inv, et, h, msg); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Fork runs fn in a new thread of the same computation. The current
// invocation is not considered complete until fn returns, so a handler's
// forked threads delay its Exit (rule 4 of VCAbound counts a handler
// execution as completed only when "any threads spawned by the handler
// terminated"). fn's error is recorded on the computation.
func (c *Context) Fork(fn func(ctx *Context) error) {
	c.inv.forks.Add(1)
	if hk := c.comp.stack.hook; hk != nil {
		task := hk.TaskSpawn(c.inv)
		go func() {
			defer c.inv.forks.Done()
			defer hk.TaskEnd(task)
			hk.TaskBegin(task)
			c.comp.record(c.comp.stack.callFork(c.comp, c.inv, fn))
		}()
		return
	}
	go func() {
		defer c.inv.forks.Done()
		c.comp.record(c.comp.stack.callFork(c.comp, c.inv, fn))
	}()
}

// emitted refuses et when the running handler declared Emits without it:
// Derive follows only the declared events, so an undeclared trigger would
// run outside what a derived spec admitted. Like a handler outside M, it
// is an error in the triggering thread (paper §4). The root expression and
// handlers that never called Emits are exempt; a forked thread runs as the
// handler that forked it. The exemption test stays inlinable, so a stack
// without Emits pays one branch per trigger.
func (c *Context) emitted(et *EventType) error {
	if h := c.inv.handler; h != nil && h.declared {
		return c.emits(h, et)
	}
	return nil
}

// emits scans h's declared events for et.
func (c *Context) emits(h *Handler, et *EventType) error {
	for _, e := range h.emits {
		if e == et {
			return nil
		}
	}
	err := &EmitsError{Handler: h.String(), Event: et.Name()}
	c.comp.record(err)
	return err
}

func (c *Context) single(et *EventType) (*Handler, error) {
	hs := c.comp.handlers(et)
	switch len(hs) {
	case 0:
		return nil, &UnboundError{Event: et.Name()}
	case 1:
		return hs[0], nil
	default:
		return nil, &AmbiguousError{Event: et.Name(), N: len(hs)}
	}
}

// frame bundles the Context and invocation of one synchronous handler
// execution. Frames are pooled so the sealed Trigger fast path performs
// no allocations; reuse is safe because a Context is documented to be
// invalid once its invocation returns, and runHandler waits for every
// thread the handler forked before recycling the frame.
type frame struct {
	ctx Context
	inv invocation
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// callSync executes one handler call synchronously in the current thread.
func (s *Stack) callSync(comp *Computation, caller *invocation, et *EventType, h *Handler, msg Message) error {
	callerH := caller.handler
	if err := comp.ctxErr(h); err != nil {
		comp.record(err)
		return err
	}
	if err := s.ctrl.Request(comp.token, callerH, h); err != nil {
		comp.record(err)
		return err
	}
	if err := s.yieldSafe(comp, YieldEnter); err != nil {
		return err
	}
	if err := s.ctrl.Enter(comp.ctx, comp.token, callerH, h); err != nil {
		comp.record(err)
		return err
	}
	return s.runHandler(comp, et, h, msg)
}

// callAsync validates the call in the current thread (so spec violations
// surface where the trigger was issued, per paper §4) and executes the
// handler in a new computation thread.
func (s *Stack) callAsync(comp *Computation, caller *invocation, et *EventType, h *Handler, msg Message) error {
	callerH := caller.handler
	if err := comp.ctxErr(h); err != nil {
		comp.record(err)
		return err
	}
	if err := s.ctrl.Request(comp.token, callerH, h); err != nil {
		comp.record(err)
		return err
	}
	comp.wg.Add(1)
	if hk := s.hook; hk != nil {
		task := hk.TaskSpawn(comp)
		go func() {
			defer comp.wg.Done()
			defer hk.TaskEnd(task)
			hk.TaskBegin(task)
			if err := s.ctrl.Enter(comp.ctx, comp.token, callerH, h); err != nil {
				comp.record(err)
				return
			}
			_ = s.runHandler(comp, et, h, msg)
		}()
		return nil
	}
	go func() {
		defer comp.wg.Done()
		if err := s.ctrl.Enter(comp.ctx, comp.token, callerH, h); err != nil {
			comp.record(err)
			return
		}
		_ = s.runHandler(comp, et, h, msg)
	}()
	return nil
}

// runHandler runs one admitted handler execution: trace start, run the
// body (under recover — a panicking handler aborts only its computation),
// wait for the handler's forks, trace end, release via Exit. Exit runs on
// every path after a successful Enter, panic included, so the controller
// never leaks the admission.
func (s *Stack) runHandler(comp *Computation, et *EventType, h *Handler, msg Message) error {
	f := framePool.Get().(*frame)
	f.inv.handler = h
	f.ctx.comp = comp
	f.ctx.inv = &f.inv
	invID := s.invSeq.Add(1)
	s.tracer.HandlerStart(comp.id, invID, et, h)
	err := s.callHandler(&f.ctx, et, h, msg)
	// Join the handler's forks even after a panic: already-forked threads
	// may still hold the frame, and the controller counts them as part of
	// this handler execution (rule 4 of VCAbound).
	s.waitInv(&f.inv)
	s.tracer.HandlerEnd(comp.id, invID, h)
	s.ctrl.Exit(comp.token, h)
	if yerr := s.yieldSafe(comp, YieldExit); yerr != nil && err == nil {
		err = yerr
	}
	f.inv.handler = nil
	f.ctx = Context{}
	framePool.Put(f)
	if err != nil {
		comp.record(err)
	}
	return err
}

// callHandler runs the handler body under recover, converting a panic
// into a *PanicError carrying the handler/event/stack identity and the
// goroutine stack at the panic.
func (s *Stack) callHandler(ctx *Context, et *EventType, h *Handler, msg Message) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{
				Stack:       s.name,
				Handler:     h.String(),
				Event:       et.Name(),
				Computation: ctx.comp.id,
				Value:       v,
				Trace:       debug.Stack(),
			}
		}
	}()
	return h.fn(ctx, msg)
}

// callFork runs a forked thread's body under recover.
func (s *Stack) callFork(comp *Computation, inv *invocation, fn func(ctx *Context) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{
				Stack:       s.name,
				Handler:     "<fork>",
				Computation: comp.id,
				Value:       v,
				Trace:       debug.Stack(),
			}
		}
	}()
	return fn(&Context{comp: comp, inv: inv})
}
