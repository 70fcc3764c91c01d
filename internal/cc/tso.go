package cc

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
)

// TSO is a conservative timestamp-ordering scheduler — a representative of
// the paper's "second group" of algorithms (timestamp ordering, §1) in its
// no-rollback, "ultimate conservative" form (§6): instead of aborting
// late operations, it refuses to start a computation until doing so cannot
// require an abort.
//
// Each computation takes a timestamp at spawn. A computation is admitted
// once (a) no admitted, still-running computation shares a declared
// microprotocol with it, and (b) no waiting computation with a smaller
// timestamp shares one — so conflicting computations run one at a time, in
// timestamp order, while disjoint computations proceed freely.
//
// As the paper remarks, conservative timestamp ordering "produce[s] serial
// executions" for conflicting workloads; experiment E7 confirms that shape
// against the versioning algorithms.
type TSO struct {
	mu     sync.Mutex
	note   *notifier
	nextTS uint64

	admitted map[*tsoToken]bool
	waiting  []*tsoToken // ascending timestamps
}

// tsoToken reuses the spec's deduplicated, ID-sorted microprotocol slice;
// declaration checks and conflict detection walk it directly instead of a
// per-spawn map.
type tsoToken struct {
	ts  uint64
	mps []*core.Microprotocol // Spec.MPs(): sorted by ID, immutable
}

// NewTSO creates the conservative timestamp-ordering controller.
func NewTSO() *TSO {
	return &TSO{admitted: make(map[*tsoToken]bool), note: newNotifier()}
}

// Name implements core.Controller.
func (c *TSO) Name() string { return "tso" }

// SetBlocker implements sched.Schedulable.
func (c *TSO) SetBlocker(b sched.Blocker) {
	c.mu.Lock()
	c.note.blk = b
	c.mu.Unlock()
}

// conflicts reports whether the tokens share a declared microprotocol — a
// merge-intersection of two ID-sorted slices.
func (a *tsoToken) conflicts(b *tsoToken) bool {
	i, j := 0, 0
	for i < len(a.mps) && j < len(b.mps) {
		switch {
		case a.mps[i] == b.mps[j]:
			return true
		case a.mps[i].ID() < b.mps[j].ID():
			i++
		default:
			j++
		}
	}
	return false
}

func (a *tsoToken) declares(mp *core.Microprotocol) bool {
	for _, m := range a.mps {
		if m == mp {
			return true
		}
	}
	return false
}

// Spawn blocks until the computation is admissible or ctx expires. A
// cancelled spawn leaves the waiting list and re-broadcasts: its presence
// may have been the only thing blocking a younger conflicting waiter.
func (c *TSO) Spawn(ctx context.Context, spec *core.Spec) (core.Token, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextTS++
	tok := &tsoToken{ts: c.nextTS, mps: spec.MPs()}
	c.waiting = append(c.waiting, tok)
	for !c.admissibleLocked(tok) {
		if err := c.note.waitLocked(ctx, &c.mu); err != nil {
			c.removeWaitingLocked(tok)
			c.note.broadcastLocked()
			return nil, deadline("spawn", nil, err)
		}
	}
	c.removeWaitingLocked(tok)
	c.admitted[tok] = true
	return tok, nil
}

func (c *TSO) removeWaitingLocked(tok *tsoToken) {
	for i, w := range c.waiting {
		if w == tok {
			c.waiting = append(c.waiting[:i], c.waiting[i+1:]...)
			break
		}
	}
}

func (c *TSO) admissibleLocked(tok *tsoToken) bool {
	for adm := range c.admitted {
		if tok.conflicts(adm) {
			return false
		}
	}
	for _, w := range c.waiting {
		if w.ts < tok.ts && tok.conflicts(w) {
			return false
		}
	}
	return true
}

// Request validates the declared set.
func (c *TSO) Request(t core.Token, _, h *core.Handler) error {
	if !t.(*tsoToken).declares(h.MP()) {
		return undeclared(h, t.(*tsoToken).mps)
	}
	return nil
}

// Enter implements core.Controller; admission happened at Spawn.
func (c *TSO) Enter(context.Context, core.Token, *core.Handler, *core.Handler) error { return nil }

// Exit implements core.Controller (no per-call bookkeeping).
func (c *TSO) Exit(core.Token, *core.Handler) {}

// RootReturned implements core.Controller (no-op).
func (c *TSO) RootReturned(core.Token) {}

// Complete releases the computation's claims and wakes waiters.
func (c *TSO) Complete(t core.Token) {
	c.mu.Lock()
	delete(c.admitted, t.(*tsoToken))
	c.note.broadcastLocked()
	c.mu.Unlock()
}
