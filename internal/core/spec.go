package core

import (
	"slices"
	"sort"
	"time"
)

// Spec declares, before a computation starts, which microprotocols it may
// visit — the collection M of the paper's isolated constructs. One Spec
// value carries the information needed by every controller variant:
//
//   - Access(mps...) — the basic set M ("isolated M e").
//   - AccessBound(bounds) — M plus a least upper bound on the number of
//     visits per microprotocol ("isolated bound M e").
//   - Route(graph) — a directed graph of handler calls
//     ("isolated route M e"); M is derived from the graph's vertices.
//   - Derive(bound, roots...) — all three at once, inferred from the
//     bindings of the epoch the computation pins (see Derive).
//   - PathSpec(path...) — all three at once, written out for one path.
//
// A Spec is immutable once built and may be shared by any number of
// computations. Controllers use the portion of the Spec they understand:
// cc.VCABound demands bounds, cc.VCARoute demands a graph (each refuses a
// spec without its part with a SpecError), and every other controller
// reads M alone. A Derive or PathSpec spec carries all three parts, so
// every controller runs it.
type Spec struct {
	mps     []*Microprotocol // deduplicated, sorted by ID
	bounds  map[*Microprotocol]int
	graph   *RouteGraph
	timeout time.Duration // 0 = none; see WithTimeout
	derive  *derivation   // non-nil for a Derive request, resolved per epoch by Isolated
}

// Access builds a basic spec: the computation may call any handler of the
// listed microprotocols, any number of times.
func Access(mps ...*Microprotocol) *Spec {
	return &Spec{mps: dedupMPs(mps)}
}

// AccessBound builds a bound spec: the computation may visit each listed
// microprotocol at most the given number of times. The set M is the key
// set of bounds.
func AccessBound(bounds map[*Microprotocol]int) *Spec {
	mps := make([]*Microprotocol, 0, len(bounds))
	b := make(map[*Microprotocol]int, len(bounds))
	for mp, n := range bounds {
		mps = append(mps, mp)
		b[mp] = n
	}
	return &Spec{mps: dedupMPs(mps), bounds: b}
}

// Route builds a routing-pattern spec from a handler-call graph. The set M
// is the set of microprotocols owning the graph's vertices.
func Route(g *RouteGraph) *Spec {
	var mps []*Microprotocol
	for h := range g.vertices {
		mps = append(mps, h.mp)
	}
	return &Spec{mps: dedupMPs(mps), graph: g}
}

// PathSpec writes out by hand the spec of a computation that calls the
// handlers of path in order. Like a derived spec it declares all three
// parts: M is their microprotocols, each bounded by its visits on the
// path, and the route is the chain path[0] → path[1] → … rooted at
// path[0], each edge declared once. Fixtures that choose a path per computation use it; protocol
// code derives its specs (Derive).
func PathSpec(path ...*Handler) *Spec {
	g := NewRouteGraph()
	bounds := make(map[*Microprotocol]int, len(path))
	for i, h := range path {
		bounds[h.mp]++
		if i == 0 {
			g.Root(h)
		} else if !slices.Contains(g.Succs(path[i-1]), h) {
			g.Edge(path[i-1], h)
		}
	}
	spec := Route(g)
	spec.bounds = bounds
	return spec
}

// MPs returns the declared collection M, deduplicated and sorted by
// microprotocol ID. The returned slice must not be modified.
func (s *Spec) MPs() []*Microprotocol { return s.mps }

// Bound returns the declared least upper bound for mp, if any.
func (s *Spec) Bound(mp *Microprotocol) (int, bool) {
	if s.bounds == nil {
		return 0, false
	}
	n, ok := s.bounds[mp]
	return n, ok
}

// HasBounds reports whether the spec carries visit bounds.
func (s *Spec) HasBounds() bool { return s.bounds != nil }

// Graph returns the routing pattern, or nil for non-route specs.
func (s *Spec) Graph() *RouteGraph { return s.graph }

// WithTimeout derives a spec whose computations carry a deadline: each
// Isolated call of the returned spec runs under a context that expires d
// after the spawn attempt starts. The paper's "isolated M e" assumes e
// terminates; WithTimeout bounds the damage when it does not — a stuck
// computation aborts with a *DeadlineError and releases its claims instead
// of blocking every overlapping computation forever. The receiver is
// unchanged; both specs share the underlying declaration and compile to
// the same controller footprint.
func (s *Spec) WithTimeout(d time.Duration) *Spec {
	out := *s
	out.timeout = d
	return &out
}

// Timeout reports the per-computation deadline, or 0 for none.
func (s *Spec) Timeout() time.Duration { return s.timeout }

func dedupMPs(mps []*Microprotocol) []*Microprotocol {
	seen := make(map[*Microprotocol]bool, len(mps))
	out := make([]*Microprotocol, 0, len(mps))
	for _, mp := range mps {
		if mp == nil || seen[mp] {
			continue
		}
		seen[mp] = true
		out = append(out, mp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// RouteGraph is the routing pattern of "isolated route M e" (paper §4): a
// directed graph whose vertices are handlers. An edge h1→h2 declares that
// the body of h1 may call h2 (directly, or through a declared path — the
// paper's rule 2 accepts any route). Roots are the handlers the
// computation's root expression may call directly.
type RouteGraph struct {
	roots    map[*Handler]bool
	edges    map[*Handler][]*Handler
	vertices map[*Handler]bool
}

// NewRouteGraph creates an empty routing pattern.
func NewRouteGraph() *RouteGraph {
	return &RouteGraph{
		roots:    make(map[*Handler]bool),
		edges:    make(map[*Handler][]*Handler),
		vertices: make(map[*Handler]bool),
	}
}

// Root declares handlers callable directly by the computation's root
// expression. It returns the graph for chaining.
func (g *RouteGraph) Root(hs ...*Handler) *RouteGraph {
	for _, h := range hs {
		g.roots[h] = true
		g.vertices[h] = true
	}
	return g
}

// Edge declares that the body of from may call to. It returns the graph
// for chaining.
func (g *RouteGraph) Edge(from, to *Handler) *RouteGraph {
	g.edges[from] = append(g.edges[from], to)
	g.vertices[from] = true
	g.vertices[to] = true
	return g
}

// IsRoot reports whether h was declared callable by the root expression.
func (g *RouteGraph) IsRoot(h *Handler) bool { return g.roots[h] }

// Contains reports whether h is a vertex of the graph.
func (g *RouteGraph) Contains(h *Handler) bool { return g.vertices[h] }

// Succs returns the direct successors of h. The result must not be
// modified.
func (g *RouteGraph) Succs(h *Handler) []*Handler { return g.edges[h] }

// Vertices returns all handlers in the graph, in unspecified order.
func (g *RouteGraph) Vertices() []*Handler {
	out := make([]*Handler, 0, len(g.vertices))
	for h := range g.vertices {
		out = append(out, h)
	}
	return out
}
