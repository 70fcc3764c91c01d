package cc

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
)

// RefVCABasic is the retained single-mutex reference implementation of
// the basic version-counting algorithm: one controller-wide mutex guards
// map-keyed gv/lv counters and a flat deferred-release list, and every
// blocked computation parks on one broadcast set. This is the
// pre-sharding architecture in its plainest form — deliberately naive,
// kept as the differential-testing oracle for the lock-free sharded
// admission path (DESIGN.md §11): any workload must observe identical
// version assignments and admission decisions from both.
//
// It is exercised by the conformance battery and the differential tests;
// production code should use VCABasic.
type RefVCABasic struct {
	mu      sync.Mutex
	n       *notifier
	gv      map[*core.Microprotocol]uint64
	lv      map[*core.Microprotocol]uint64
	pending map[*core.Microprotocol][]release
}

// NewRefVCABasic creates the reference controller.
func NewRefVCABasic() *RefVCABasic {
	return &RefVCABasic{
		n:       newNotifier(),
		gv:      make(map[*core.Microprotocol]uint64),
		lv:      make(map[*core.Microprotocol]uint64),
		pending: make(map[*core.Microprotocol][]release),
	}
}

// Name implements core.Controller.
func (c *RefVCABasic) Name() string { return "ref-vca-basic" }

// SetBlocker implements sched.Schedulable.
func (c *RefVCABasic) SetBlocker(b sched.Blocker) {
	c.mu.Lock()
	c.n.blk = b
	c.mu.Unlock()
}

// refToken carries the computation's private versions, map-keyed.
type refToken struct {
	mps []*core.Microprotocol
	pv  map[*core.Microprotocol]uint64
}

// Spawn implements rule 1 under the global mutex.
func (c *RefVCABasic) Spawn(_ context.Context, spec *core.Spec) (core.Token, error) {
	mps := spec.MPs()
	t := &refToken{mps: mps, pv: make(map[*core.Microprotocol]uint64, len(mps))}
	c.mu.Lock()
	for _, mp := range mps {
		c.gv[mp]++
		t.pv[mp] = c.gv[mp]
	}
	c.mu.Unlock()
	return t, nil
}

func (t *refToken) declared(mp *core.Microprotocol) bool {
	_, ok := t.pv[mp]
	return ok
}

// Request rejects calls outside the declared set.
func (c *RefVCABasic) Request(t core.Token, _, h *core.Handler) error {
	tok := t.(*refToken)
	if !tok.declared(h.MP()) {
		return undeclared(h, tok.mps)
	}
	return nil
}

// Enter implements rule 2: predicate loop under the global mutex, parked
// on the broadcast set.
func (c *RefVCABasic) Enter(ctx context.Context, t core.Token, _, h *core.Handler) error {
	tok := t.(*refToken)
	mp := h.MP()
	if !tok.declared(mp) {
		return undeclared(h, tok.mps)
	}
	min := tok.pv[mp] - 1
	c.mu.Lock()
	for c.lv[mp] < min {
		if err := c.n.waitLocked(ctx, &c.mu); err != nil {
			c.mu.Unlock()
			return deadline("enter", h, err)
		}
	}
	c.mu.Unlock()
	return nil
}

// Exit implements core.Controller (no early release in the basic
// algorithm).
func (c *RefVCABasic) Exit(core.Token, *core.Handler) {}

// RootReturned implements core.Controller (no-op).
func (c *RefVCABasic) RootReturned(core.Token) {}

// Complete implements rule 3: queue each release, apply everything due,
// broadcast once.
func (c *RefVCABasic) Complete(t core.Token) {
	tok := t.(*refToken)
	c.mu.Lock()
	for _, mp := range tok.mps {
		pv := tok.pv[mp]
		c.pending[mp] = append(c.pending[mp], release{minLv: pv - 1, target: pv})
	}
	c.applyLocked()
	c.mu.Unlock()
}

// applyLocked drains due releases to a fixpoint (cascades included) and
// broadcasts when any local version moved. Callers hold c.mu.
func (c *RefVCABasic) applyLocked() {
	moved := false
	for changed := true; changed; {
		changed = false
		for mp, q := range c.pending {
			kept := q[:0]
			for _, r := range q {
				if c.lv[mp] >= r.minLv {
					if r.target > c.lv[mp] {
						c.lv[mp] = r.target
					}
					moved, changed = true, true
				} else {
					kept = append(kept, r)
				}
			}
			if len(kept) == 0 {
				delete(c.pending, mp)
			} else {
				c.pending[mp] = kept
			}
		}
	}
	if moved {
		c.n.broadcastLocked()
	}
}

// versions reports (gv, lv) of mp — the differential tests' observation
// point.
func (c *RefVCABasic) versions(mp *core.Microprotocol) (gv, lv uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gv[mp], c.lv[mp]
}
