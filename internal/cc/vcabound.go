package cc

import (
	"context"
	"sync"

	"repro/internal/core"
)

// VCABound is the Version-Counting with Least-Upper-Bound Algorithm of
// paper §5.2, implementing "isolated bound M e". It is the kernel with
// three overrides: Spawn validates the bounds, Request spends the visit
// budget, and Exit applies rule 4.
//
// Rule 1: gv advances by bound[p], the declared least upper bound of
// visits, and pv snapshots the result.
//
// Rule 2: a call is admitted while pv[p]−bound[p] ≤ lv[p] < pv[p]; a
// computation that tries to exceed its own declared bound gets a
// BoundExhaustedError in the thread that issued the call. Waiting for lv
// to reach the window's lower edge (the claim's recorded minLv) suffices:
// lv < pv is invariant while the computation still holds unconsumed
// budget, because lv only passes pv−1 through this computation's own
// rule-4 increments or its rule-3 completion.
//
// Rule 4: every completed handler execution increments lv[p] by one, so a
// computation that used up its bound on p hands p to its successor before
// completing — the extra parallelism this algorithm buys.
//
// Rule 3: completion upgrades any lv[p] still below pv[p] (the computation
// visited p fewer times than declared), never downgrading.
type VCABound struct{ vca }

// boundToken is a VCABound computation's token: the kernel's claims plus
// the visit budget.
type boundToken struct {
	vcaToken
	mu        sync.Mutex
	requested []uint64 //samoa:guard mu — visits consumed so far, by footprint position
}

// NewVCABound creates a controller enforcing the least-upper-bound
// version-counting algorithm. Specs must carry visit bounds
// (core.AccessBound, core.PathSpec or core.Derive). Its version table
// claims with the spec's bounds as rule-1 deltas.
func NewVCABound() *VCABound {
	vt := newVersionTable()
	vt.useBounds = true
	return &VCABound{vca{vt}}
}

// Name implements core.Controller.
func (c *VCABound) Name() string { return "vca-bound" }

// Spawn implements rule 1. The footprint is validated in full before any
// counter moves, so an invalid spec cannot leave gv advanced with no
// matching release.
func (c *VCABound) Spawn(_ context.Context, spec *core.Spec) (core.Token, error) {
	if !spec.HasBounds() {
		return nil, &core.SpecError{Controller: c.Name(), Reason: "spec carries no visit bounds; build it with core.AccessBound"}
	}
	fp := c.footprint(spec)
	for i, b := range fp.bounds {
		if b == 0 {
			return nil, &core.SpecError{Controller: c.Name(), Reason: "non-positive bound for microprotocol " + fp.mps[i].Name()}
		}
	}
	t := &boundToken{
		vcaToken:  vcaToken{fp: fp, nodes: make([]relNode, len(fp.slots))},
		requested: make([]uint64, len(fp.slots)),
	}
	c.claim(fp, t.nodes)
	return t, nil
}

// Request consumes one declared visit of h's microprotocol, failing when
// the least upper bound is exhausted (paper §4: "A runtime error exception
// will be thrown if the number is exhausted").
func (c *VCABound) Request(t core.Token, _, h *core.Handler) error {
	tok := t.(*boundToken)
	i, err := tok.pos(h)
	if err != nil {
		return err
	}
	tok.mu.Lock()
	defer tok.mu.Unlock()
	if tok.requested[i] >= tok.fp.bounds[i] {
		return &core.BoundExhaustedError{MP: h.MP().Name(), Bound: int(tok.fp.bounds[i])}
	}
	tok.requested[i]++
	return nil
}

// Exit implements rule 4: a completed handler execution bumps the local
// version by one, handing off to a computation the bump admitted.
func (c *VCABound) Exit(t core.Token, h *core.Handler) {
	tok := t.(*boundToken)
	if i := tok.fp.pos(h.MP()); i >= 0 {
		c.handoff(tok.fp.states[i].bump())
	}
}
