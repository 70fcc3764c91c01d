package cc

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
)

// Serial is the Appia baseline (paper §§1–2): computations never overlap.
// Spawn blocks until the previous computation completes, so every run is
// serial — trivially isolated, with no internal concurrency across
// computations.
type Serial struct {
	mu   sync.Mutex
	note *notifier
	busy bool
}

// NewSerial creates the serial (Appia-model) controller.
func NewSerial() *Serial { return &Serial{note: newNotifier()} }

// Name implements core.Controller.
func (c *Serial) Name() string { return "serial" }

// SetBlocker implements sched.Schedulable.
func (c *Serial) SetBlocker(b sched.Blocker) {
	c.mu.Lock()
	c.note.blk = b
	c.mu.Unlock()
}

// Spawn blocks until the stack is quiescent, then admits the computation;
// a cancelled wait leaves no claim behind. Admission is FIFO: a spawn
// that finds the stack busy (or other spawns already parked) parks, and
// Complete hands the slot to the longest waiter directly. Without the
// handoff a completing thread that immediately re-spawns wins the freed
// slot every time — parked spawns starve, and a computation pinned to a
// superseded epoch can hold that epoch's drain open forever (live
// reconfiguration's settle would never finish).
func (c *Serial) Spawn(ctx context.Context, _ *core.Spec) (core.Token, error) {
	c.mu.Lock()
	if !c.busy && len(c.note.ws) == 0 {
		c.busy = true
		c.mu.Unlock()
		return nil, nil
	}
	if err := c.note.waitLocked(ctx, &c.mu); err != nil {
		c.mu.Unlock()
		return nil, deadline("spawn", nil, err)
	}
	// Woken by Complete's handoff: busy stayed true on our behalf.
	c.mu.Unlock()
	return nil, nil
}

// Request implements core.Controller (no per-call control).
func (c *Serial) Request(core.Token, *core.Handler, *core.Handler) error { return nil }

// Enter implements core.Controller (no per-call control).
func (c *Serial) Enter(context.Context, core.Token, *core.Handler, *core.Handler) error { return nil }

// Exit implements core.Controller (no per-call control).
func (c *Serial) Exit(core.Token, *core.Handler) {}

// RootReturned implements core.Controller (no-op).
func (c *Serial) RootReturned(core.Token) {}

// Complete releases the stack: the slot transfers to the longest-parked
// spawn when one exists (busy stays true for it), and frees up otherwise.
func (c *Serial) Complete(core.Token) {
	c.mu.Lock()
	if !c.note.signalLocked() {
		c.busy = false
	}
	c.mu.Unlock()
}

// None is the Cactus baseline (paper §§1–2): the runtime imposes no
// synchronisation at all; any interleaving of computations may occur, and
// the programmer is responsible for correctness. It does not enforce the
// isolation property — package trace's checker demonstrates the resulting
// violations in the tests and in experiment E1.
type None struct{}

// NewNone creates the unrestricted (Cactus-model) controller.
func NewNone() *None { return &None{} }

// Name implements core.Controller.
func (c *None) Name() string { return "none" }

// Spawn implements core.Controller (no control).
func (c *None) Spawn(context.Context, *core.Spec) (core.Token, error) { return nil, nil }

// Request implements core.Controller (no control).
func (c *None) Request(core.Token, *core.Handler, *core.Handler) error { return nil }

// Enter implements core.Controller (no control).
func (c *None) Enter(context.Context, core.Token, *core.Handler, *core.Handler) error { return nil }

// Exit implements core.Controller (no control).
func (c *None) Exit(core.Token, *core.Handler) {}

// RootReturned implements core.Controller (no-op).
func (c *None) RootReturned(core.Token) {}

// Complete implements core.Controller (no control).
func (c *None) Complete(core.Token) {}
