package core

import (
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
//   - Derive(kind, bound, roots...) — any of the three, inferred from the
//     bindings of the epoch the computation pins (see Derive).
//
// A Spec is immutable once built and may be shared by any number of
// computations. Controllers use the portion of the Spec they understand:
// cc.VCABound demands bounds, cc.VCARoute demands a graph, and every
// controller can run an Access spec (treating it with its most
// conservative interpretation).
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

// MPs returns the declared collection M, deduplicated and sorted by
// microprotocol ID. The returned slice must not be modified.
func (s *Spec) MPs() []*Microprotocol { return s.mps }

// Declares reports whether mp is in the declared collection M.
func (s *Spec) Declares(mp *Microprotocol) bool {
	for _, m := range s.mps {
		if m == mp {
			return true
		}
	}
	return false
}

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

// HasCycle reports whether the routing pattern contains a directed cycle.
// Cyclic patterns are legal — recursion needs them — but they prevent the
// VCAroute algorithm's rule 4(b) from ever releasing the microprotocols
// on the cycle early (the paper notes this case falls back to release at
// completion), so a protocol designer may want to know.
func (g *RouteGraph) HasCycle() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*Handler]int, len(g.vertices))
	var visit func(h *Handler) bool
	visit = func(h *Handler) bool {
		color[h] = grey
		for _, s := range g.edges[h] {
			switch color[s] {
			case grey:
				return true
			case white:
				if visit(s) {
					return true
				}
			}
		}
		color[h] = black
		return false
	}
	for h := range g.vertices {
		if color[h] == white && visit(h) {
			return true
		}
	}
	return false
}
