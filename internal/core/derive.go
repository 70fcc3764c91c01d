package core

import (
	"maps"
	"slices"
	"sync/atomic"
)

// Derive requests a spec inferred from the stack's own bindings — the
// practical rendering of the paper's §4 remark that "in the
// strongly-typed language, the proper value of argument M could be
// inferred statically". Each handler declares the events its body
// triggers (Handler.Emits, next to its AddHandler); the spec of a
// computation entered through the root events falls out by reachability:
//
//   - its roots are the handlers bound to roots;
//   - an edge h→h′ joins h to every h′ bound to an event h emits;
//   - the spec declares all three parts of the reachable part at once:
//     its microprotocols M, bound visits on each of them, and the routing
//     graph with those roots. The controller reads the part it implements
//     (cc.VCABound the bounds, cc.VCARoute the graph, every other
//     controller M), so one request serves every controller.
//
// The returned Spec is a request, not a declaration: Isolated resolves it
// against the epoch the computation pins, so pin and spec choice are one
// fact and a live Reconfigure can never leave the spec naming another
// epoch's microprotocols. Resolution runs once per request and epoch;
// every later computation of the pair reuses the result without
// allocating. Build a request once per entry point and reuse it: each
// request is cached on every epoch it resolves in, and the controller
// compiles each resolution, so a request built per computation grows
// both caches for the life of the stack. WithTimeout composes with it.
//
// A reached handler that never declared Emits makes the computation fail
// with a *DeriveError instead of being taken for a leaf.
func Derive(bound int, roots ...*EventType) *Spec {
	return &Spec{derive: &derivation{bound: bound, roots: slices.Clone(roots)}}
}

// derivation is what a Derive spec stands for until a computation pins an
// epoch. last is its latest resolution: a later epoch whose bindings
// derive the same spec reuses it, so the controllers' per-spec state
// (cc's compiled footprints) carries across reconfigurations that do not
// touch the request's part of the stack.
type derivation struct {
	bound int
	roots []*EventType
	last  atomic.Pointer[Spec]
}

// resolve returns the spec d derives in epoch ep, deriving it on the
// epoch's first request. A failed derivation is not cached.
func (ep *epochSnap) resolve(d *derivation) (*Spec, error) {
	if sp, ok := ep.derived.Load(d); ok {
		return sp.(*Spec), nil
	}
	sp, err := d.derive(ep.bindings)
	if err != nil {
		return nil, err
	}
	if last := d.last.Load(); last != nil && sameSpec(last, sp) {
		sp = last
	}
	v, _ := ep.derived.LoadOrStore(d, sp)
	sp = v.(*Spec)
	d.last.Store(sp)
	return sp, nil
}

// derive walks the emit graph of one binding table from d's roots, in
// binding order, so equal tables derive equal specs.
func (d *derivation) derive(bindings map[*EventType][]*Handler) (*Spec, error) {
	g := NewRouteGraph()
	var reached []*Handler
	add := func(h *Handler) {
		if !g.Contains(h) {
			reached = append(reached, h)
		}
	}
	for _, et := range d.roots {
		for _, h := range bindings[et] {
			add(h)
			g.Root(h)
		}
	}
	for i := 0; i < len(reached); i++ {
		h := reached[i]
		if !h.declared {
			return nil, &DeriveError{Handler: h.String()}
		}
		for _, et := range h.emits {
			for _, next := range bindings[et] {
				add(next)
				if !slices.Contains(g.Succs(h), next) {
					g.Edge(h, next)
				}
			}
		}
	}
	bounds := make(map[*Microprotocol]int, len(reached))
	for _, h := range reached {
		bounds[h.mp] = d.bound
	}
	spec := Route(g)
	spec.bounds = bounds
	return spec, nil
}

// sameSpec reports whether two resolutions of one request declare the
// same thing.
func sameSpec(a, b *Spec) bool {
	if !slices.Equal(a.mps, b.mps) || !maps.Equal(a.bounds, b.bounds) || (a.graph == nil) != (b.graph == nil) {
		return false
	}
	return a.graph == nil ||
		maps.Equal(a.graph.roots, b.graph.roots) && maps.EqualFunc(a.graph.edges, b.graph.edges, slices.Equal[[]*Handler])
}

// admits refuses a hand-written spec naming a microprotocol that is not
// part of epoch ep — one removed or replaced at or before it, or one a
// later epoch added — with the ReconfiguredError that tells the caller to
// rebuild it. The cost is one map lookup per declared microprotocol.
func (ep *epochSnap) admits(spec *Spec) error {
	for _, mp := range spec.mps {
		if !ep.mps[mp] {
			return &ReconfiguredError{MP: mp.name, Epoch: ep.n}
		}
	}
	return nil
}
