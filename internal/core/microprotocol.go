package core

import (
	"fmt"
	"sync/atomic"
)

var mpSeq atomic.Uint64

// Microprotocol is a named group of handlers sharing local state (paper
// §2). The framework does not hold the state itself: user code closes its
// handler functions over a state struct, and the concurrency controller
// guarantees that handler executions of different computations on the same
// microprotocol never interleave in an isolation-violating way, so the
// state needs no locking of its own.
type Microprotocol struct {
	id       uint64
	name     string
	handlers []*Handler
	byName   map[string]*Handler
	stack    *Stack // set by Stack.Register
	snap     Snapshotter
}

// Snapshotter captures and restores a microprotocol's local state. The
// rollback-based controllers (the paper's second algorithm group,
// cc.WaitDie) can only schedule computations over microprotocols that
// provide one: an aborted computation's effects are undone by restoring
// the snapshots taken when it first touched each microprotocol.
type Snapshotter interface {
	// Snapshot returns a deep copy of the current state.
	Snapshot() any
	// Restore replaces the state with a previously returned snapshot.
	Restore(snapshot any)
}

// SetSnapshotter attaches the microprotocol's state snapshotting, opting
// it into rollback-based scheduling. It panics after the stack sealed.
func (p *Microprotocol) SetSnapshotter(s Snapshotter) {
	if st := p.stack; st != nil && st.isSealed() {
		panic(fmt.Sprintf("samoa: SetSnapshotter on %s after its stack sealed (epoch %d is live; attach it to a replacement microprotocol via Reconfigure)",
			p.name, st.CurrentEpoch()))
	}
	p.snap = s
}

// Snapshotter returns the attached snapshotter, or nil.
func (p *Microprotocol) Snapshotter() Snapshotter { return p.snap }

// NewMicroprotocol creates a microprotocol with no handlers.
func NewMicroprotocol(name string) *Microprotocol {
	return &Microprotocol{
		id:     mpSeq.Add(1),
		name:   name,
		byName: make(map[string]*Handler),
	}
}

// Name reports the microprotocol's name.
func (p *Microprotocol) Name() string { return p.name }

// ID reports a process-unique identifier, usable as a stable sort key.
func (p *Microprotocol) ID() uint64 { return p.id }

// String implements fmt.Stringer.
func (p *Microprotocol) String() string { return p.name }

// HandlerFunc is the body of a handler. It runs inside a computation; ctx
// issues further events and forks computation threads. A non-nil error is
// recorded on the computation and returned from Stack.Isolated.
type HandlerFunc func(ctx *Context, msg Message) error

// Handler is a code block of a microprotocol, triggered by events of the
// types it is bound to.
type Handler struct {
	mp       *Microprotocol
	name     string
	fn       HandlerFunc
	readOnly bool
	declared bool         // Emits was called, possibly with no events
	emits    []*EventType // see Emits
}

// HandlerOption configures a handler at creation.
type HandlerOption func(*Handler)

// ReadOnly declares that the handler does not modify its microprotocol's
// state. Read/write-aware controllers (the paper's §7 isolation-level
// extension, implemented by cc.VCARW) let read-only computations share a
// microprotocol; all other controllers ignore the annotation.
func ReadOnly() HandlerOption {
	return func(h *Handler) { h.readOnly = true }
}

// AddHandler registers a new handler on the microprotocol. It panics on a
// duplicate name or if the microprotocol's stack is already sealed; both
// are construction-time programming errors.
func (p *Microprotocol) AddHandler(name string, fn HandlerFunc, opts ...HandlerOption) *Handler {
	if fn == nil {
		panic(fmt.Sprintf("samoa: nil handler func %s.%s", p.name, name))
	}
	if _, dup := p.byName[name]; dup {
		panic(fmt.Sprintf("samoa: duplicate handler %s.%s", p.name, name))
	}
	if s := p.stack; s != nil && s.isSealed() {
		panic(fmt.Sprintf("samoa: AddHandler %s.%s after its stack sealed (epoch %d is live; build a replacement microprotocol and install it via Reconfigure)",
			p.name, name, s.CurrentEpoch()))
	}
	h := &Handler{mp: p, name: name, fn: fn}
	for _, o := range opts {
		o(h)
	}
	p.byName[name] = h
	p.handlers = append(p.handlers, h)
	return h
}

// Emits declares event types the handler's body may trigger. Derive
// follows it, and Trigger refuses what it omits: Derive adds an edge from
// the handler to every handler bound to a declared event, and each
// trigger form returns an EmitsError for an event outside the list. A
// handler that triggers nothing declares Emits() with no events; Derive
// refuses to resolve through a handler that never called Emits, since it
// cannot tell a leaf from a missing declaration. Emits returns the
// handler for chaining and panics once the microprotocol's stack has
// sealed, like AddHandler.
func (h *Handler) Emits(ets ...*EventType) *Handler {
	if s := h.mp.stack; s != nil && s.isSealed() {
		panic(fmt.Sprintf("samoa: Emits on %s after its stack sealed (epoch %d is live; declare it on a replacement microprotocol installed via Reconfigure)",
			h, s.CurrentEpoch()))
	}
	h.declared = true
	h.emits = append(h.emits, ets...)
	return h
}

// Handler returns the handler with the given name, or nil.
func (p *Microprotocol) Handler(name string) *Handler { return p.byName[name] }

// Handlers returns the microprotocol's handlers in registration order.
// The returned slice must not be modified.
func (p *Microprotocol) Handlers() []*Handler { return p.handlers }

// Name reports the handler's name.
func (h *Handler) Name() string { return h.name }

// MP reports the microprotocol the handler belongs to.
func (h *Handler) MP() *Microprotocol { return h.mp }

// IsReadOnly reports whether the handler was declared with ReadOnly.
func (h *Handler) IsReadOnly() bool { return h.readOnly }

// String implements fmt.Stringer as "microprotocol.handler".
func (h *Handler) String() string { return h.mp.name + "." + h.name }
