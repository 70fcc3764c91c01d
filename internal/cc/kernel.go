package cc

import (
	"context"

	"repro/internal/core"
)

// vca is the version-counting kernel every VCA* controller embeds. It
// implements the basic algorithm (paper §5.1) end to end — rule 1 at
// Spawn, the declared-set check at Request, rule 2 at Enter, rule 3 at
// Complete — and owns the controller's versionTable, whose SetBlocker,
// SpawnStats, InstallEpoch and RetireEpoch it promotes as the
// sched.Schedulable and core.Reconfigurer surfaces. VCABasic is the
// kernel as is; VCABound, VCARoute and VCARW override, through method
// embedding, exactly the rules the paper changes for them, so the
// overrides resolve at compile time and the hot path gains no indirect
// call.
type vca struct{ *versionTable }

// vcaToken is the kernel's token: the compiled footprint and one claim
// node per footprint position. nodes[i].target is the private version
// pv[i]; nodes[i].minLv is the lv value rule 2 waits for (pv−1, or
// pv−bound under VCABound). VCABasic and VCARW computations carry it as
// is; VCABound and VCARoute tokens embed it next to the state their
// overrides keep, so a VCABasic token stays two words and a slice.
type vcaToken struct {
	fp    *footprint
	nodes []relNode
}

// claimsOf returns the kernel's part of any version-counting token — by
// a type switch, so the hot path gains no indirect call.
func claimsOf(t core.Token) *vcaToken {
	switch t := t.(type) {
	case *vcaToken:
		return t
	case *boundToken:
		return &t.vcaToken
	}
	return &t.(*routeToken).vcaToken
}

// Spawn implements rule 1: an array walk over the compiled footprint —
// two allocations, no map churn, and no lock at all when the footprint's
// slots are quiescent (versionTable.claim). Spawn never blocks, so the
// context is not consulted.
func (k *vca) Spawn(_ context.Context, spec *core.Spec) (core.Token, error) {
	fp := k.footprint(spec)
	t := &vcaToken{fp: fp, nodes: make([]relNode, len(fp.slots))}
	k.claim(fp, t.nodes)
	return t, nil
}

// Request rejects calls to microprotocols outside the declared set M
// (paper §4: an error is raised in the thread that issued the call).
func (k *vca) Request(t core.Token, _, h *core.Handler) error {
	_, err := claimsOf(t).pos(h)
	return err
}

// pos returns the footprint position of h's microprotocol, or the
// UndeclaredError for a call outside the declared set.
func (t *vcaToken) pos(h *core.Handler) (int, error) {
	if i := t.fp.pos(h.MP()); i >= 0 {
		return i, nil
	}
	return -1, undeclared(h, t.fp.mps)
}

// Enter implements rule 2: block until lv reaches the claim's recorded
// threshold, or the computation's context expires (the versions stay
// claimed either way; Complete releases them).
func (k *vca) Enter(ctx context.Context, t core.Token, _, h *core.Handler) error {
	tok := claimsOf(t)
	i, err := tok.pos(h)
	if err != nil {
		return err
	}
	if err := tok.fp.states[i].waitAtLeast(ctx, tok.nodes[i].minLv); err != nil {
		return deadline("enter", h, err)
	}
	return nil
}

// Exit implements core.Controller; the basic algorithm releases nothing
// before completion.
func (k *vca) Exit(core.Token, *core.Handler) {}

// RootReturned implements core.Controller (no-op for the basic
// algorithm).
func (k *vca) RootReturned(core.Token) {}

// Complete implements rule 3: upgrade every declared microprotocol's local
// version to the private version, in spawn order — by pushing the token's
// embedded nodes onto the slots' group-commit stacks (no allocation).
func (k *vca) Complete(t core.Token) {
	tok := claimsOf(t)
	for i, st := range tok.fp.states {
		st.requestNode(&tok.nodes[i])
	}
}
