package cc

import (
	"context"
	"sync"

	"repro/internal/core"
)

// VCARoute is the Version-Counting with Routing Pattern Algorithm of paper
// §5.3, implementing "isolated route M e".
//
// The spec's routing graph declares, per computation, which handlers may
// be called and by whom (an edge h1→h2 means the body of h1 may call h2;
// rule 2 admits a call when a route — a path — exists). Versioning is the
// kernel's (one version per microprotocol), but rule 4(b) releases a
// microprotocol early: as soon as all its handlers are inactive and
// unreachable from any active handler, its vertices leave the graph and
// its local version is upgraded, letting the next computation in before
// this one completes. The overrides are the route check in Request and
// the rule-4(b) scan in Exit, RootReturned and Complete.
//
// Three details the paper leaves implicit are made concrete here:
//
//   - A handler requested asynchronously but not yet started counts as
//     active for reachability, from the moment the event is issued;
//     otherwise its microprotocol could be released out from under it.
//   - Early upgrades go through the same version-ordered release queue as
//     completions, so a release by computation k never overtakes an
//     older computation still using the microprotocol.
//   - A cancelled Enter leaves the Request-time activity count in place —
//     conservative for rule 4(b), and Complete force-releases every
//     unreleased microprotocol regardless.
//
// A virtual ROOT vertex (edges to the graph's declared roots) models
// "handlers to be called directly by expression e"; it stays active until
// the root expression returns.
//
// The routing graph is compiled once per spec into dense vertex indices
// (footprint.route); per-token state — presence, activity counts, BFS
// scratch — is then plain slices over those indices.
type VCARoute struct{ vca }

// NewVCARoute creates a controller enforcing the routing-pattern
// version-counting algorithm. Specs must be built with core.Route.
func NewVCARoute() *VCARoute { return &VCARoute{vca{newVersionTable()}} }

// Name implements core.Controller.
func (c *VCARoute) Name() string { return "vca-route" }

// routeToken is a VCARoute computation's token: the kernel's claims plus
// the rule-4(b) bookkeeping, guarded by mu. The bookkeeping starts zeroed
// but for rootActive: nothing released, every vertex in the graph,
// nothing active.
type routeToken struct {
	vcaToken
	mu         sync.Mutex
	released   []bool  // by footprint position
	removed    []bool  // by vertex index: left the graph under rule 4(b)
	counts     []int32 // by vertex index: pending + active executions
	rootActive bool

	// reachLocked's scratch, reused across calls.
	seen  []bool
	queue []int
}

// Spawn implements rule 1 of VCAbasic over the graph's microprotocols.
// It never blocks, so the context is not consulted.
func (c *VCARoute) Spawn(_ context.Context, spec *core.Spec) (core.Token, error) {
	if spec.Graph() == nil {
		return nil, &core.SpecError{Controller: c.Name(), Reason: "spec carries no routing graph; build it with core.Route"}
	}
	fp := c.footprint(spec)
	np, nv := len(fp.slots), len(fp.route.succs)
	flags := make([]bool, np+2*nv) // one backing array for released, removed and seen
	t := &routeToken{
		vcaToken:   vcaToken{fp: fp, nodes: make([]relNode, np)},
		released:   flags[:np:np],
		removed:    flags[np : np+nv : np+nv],
		seen:       flags[np+nv:],
		counts:     make([]int32, nv),
		rootActive: true,
	}
	c.claim(fp, t.nodes)
	return t, nil
}

// Request implements the admission part of rule 2: the call must follow a
// declared route (or target a declared root when issued by the root
// expression). An admitted call marks the handler as requested — it counts
// as active for rule 4(b) from this moment.
func (c *VCARoute) Request(t core.Token, caller, h *core.Handler) error {
	tok := t.(*routeToken)
	if _, err := tok.pos(h); err != nil {
		return err
	}
	r := tok.fp.route
	v, inGraph := r.hpos[h]
	tok.mu.Lock()
	defer tok.mu.Unlock()
	if !inGraph || tok.removed[v] {
		// The vertex was never declared, or already removed by rule
		// 4(b); a call now would break the release the algorithm
		// performed.
		return &core.NoRouteError{From: nameOf(caller), To: h.String()}
	}
	if caller == nil {
		if !r.isRoot[v] {
			return &core.NoRouteError{From: "", To: h.String()}
		}
	} else {
		src, ok := r.hpos[caller]
		if !ok || !tok.routeExistsLocked(src, v) {
			return &core.NoRouteError{From: caller.String(), To: h.String()}
		}
	}
	tok.counts[v]++
	return nil
}

// routeExistsLocked reports whether a path from src to dst (length ≥ 1)
// exists over the vertices still in the graph. Callers hold tok.mu.
func (tok *routeToken) routeExistsLocked(src, dst int) bool {
	if tok.removed[src] {
		return false
	}
	clear(tok.seen)
	return tok.reachLocked(append(tok.queue[:0], src))[dst]
}

// reachLocked adds to the marked set tok.seen every vertex still in the
// graph that a path of length ≥ 1 leads to from a vertex in queue, and
// returns the set. Callers hold tok.mu.
func (tok *routeToken) reachLocked(queue []int) []bool {
	r := tok.fp.route
	for head := 0; head < len(queue); head++ {
		for _, succ := range r.succs[queue[head]] {
			if !tok.removed[succ] && !tok.seen[succ] {
				tok.seen[succ] = true
				queue = append(queue, succ)
			}
		}
	}
	tok.queue = queue[:0]
	return tok.seen
}

// Exit implements rule 4: the handler becomes inactive, and any
// microprotocol left with only inactive, unreachable handlers is released.
func (c *VCARoute) Exit(t core.Token, h *core.Handler) {
	tok := t.(*routeToken)
	v, ok := tok.fp.route.hpos[h]
	if !ok {
		return
	}
	tok.mu.Lock()
	tok.counts[v]--
	tok.scanReleaseLocked()
	tok.mu.Unlock()
}

// RootReturned deactivates the virtual ROOT vertex: the root expression
// will issue no more direct calls, so handlers reachable only from ROOT
// become releasable.
func (c *VCARoute) RootReturned(t core.Token) {
	tok := t.(*routeToken)
	tok.mu.Lock()
	tok.rootActive = false
	tok.scanReleaseLocked()
	tok.mu.Unlock()
}

// Complete implements rule 3 (as in VCAbound): upgrade what rule 4(b)
// could not release early — e.g. microprotocols kept reachable by cycles.
func (c *VCARoute) Complete(t core.Token) {
	tok := t.(*routeToken)
	tok.mu.Lock()
	for i, done := range tok.released {
		if !done {
			tok.released[i] = true
			tok.fp.states[i].requestNode(&tok.nodes[i])
		}
	}
	tok.mu.Unlock()
}

// scanReleaseLocked is rule 4(b): compute the set of handlers that are
// active or reachable from an active handler (including the virtual ROOT)
// over the vertices still in the graph, then release every unreleased
// microprotocol none of whose vertices is in that set. Callers hold
// tok.mu.
func (tok *routeToken) scanReleaseLocked() {
	r := tok.fp.route
	clear(tok.seen)
	queue := tok.queue[:0]
	for v, n := range tok.counts {
		if !tok.removed[v] && (n > 0 || tok.rootActive && r.isRoot[v]) {
			tok.seen[v] = true
			queue = append(queue, v)
		}
	}
	busy := tok.reachLocked(queue)
next:
	for p, done := range tok.released {
		if done {
			continue
		}
		for _, v := range r.mpVerts[p] {
			if busy[v] {
				continue next
			}
		}
		for _, v := range r.mpVerts[p] {
			tok.removed[v] = true
		}
		tok.released[p] = true
		tok.fp.states[p].requestNode(&tok.nodes[p])
	}
}

func nameOf(h *core.Handler) string {
	if h == nil {
		return ""
	}
	return h.String()
}
