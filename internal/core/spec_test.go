package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
)

func TestEventTypeName(t *testing.T) {
	et := core.NewEventType("FromNet")
	if et.Name() != "FromNet" || et.String() != "FromNet" {
		t.Fatalf("name = %q, string = %q", et.Name(), et.String())
	}
}

func TestEventTypeIdentity(t *testing.T) {
	a, b := core.NewEventType("x"), core.NewEventType("x")
	if a == b {
		t.Fatal("distinct event types with equal names must be distinct values")
	}
}

func nopHandler(*core.Context, core.Message) error { return nil }

func TestMicroprotocolHandlers(t *testing.T) {
	p := core.NewMicroprotocol("relcomm")
	send := p.AddHandler("send", nopHandler)
	recv := p.AddHandler("recv", nopHandler)

	if p.Name() != "relcomm" || p.String() != "relcomm" {
		t.Fatalf("name = %q", p.Name())
	}
	if p.Handler("send") != send || p.Handler("recv") != recv {
		t.Fatal("handler lookup mismatch")
	}
	if p.Handler("missing") != nil {
		t.Fatal("missing handler must be nil")
	}
	hs := p.Handlers()
	if len(hs) != 2 || hs[0] != send || hs[1] != recv {
		t.Fatalf("handlers = %v", hs)
	}
	if send.MP() != p || send.Name() != "send" || send.String() != "relcomm.send" {
		t.Fatalf("handler identity: %v %v %v", send.MP(), send.Name(), send.String())
	}
	if send.IsReadOnly() {
		t.Fatal("handler should not be read-only by default")
	}
	ro := p.AddHandler("peek", nopHandler, core.ReadOnly())
	if !ro.IsReadOnly() {
		t.Fatal("ReadOnly option not applied")
	}
}

func TestMicroprotocolIDsUnique(t *testing.T) {
	a, b := core.NewMicroprotocol("a"), core.NewMicroprotocol("b")
	if a.ID() == b.ID() {
		t.Fatal("microprotocol IDs must be unique")
	}
}

func TestAddHandlerPanics(t *testing.T) {
	p := core.NewMicroprotocol("p")
	p.AddHandler("h", nopHandler)
	mustPanic(t, "duplicate handler", func() { p.AddHandler("h", nopHandler) })
	mustPanic(t, "nil handler func", func() { p.AddHandler("g", nil) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestAccessSpecDedupAndSort(t *testing.T) {
	a := core.NewMicroprotocol("a")
	b := core.NewMicroprotocol("b")
	s := core.Access(b, a, b, nil, a)
	mps := s.MPs()
	if len(mps) != 2 {
		t.Fatalf("MPs = %v, want 2 deduplicated", mps)
	}
	if mps[0].ID() > mps[1].ID() {
		t.Fatal("MPs must be sorted by ID")
	}
	if !declares(s, a) || !declares(s, b) {
		t.Fatal("Declares must cover listed microprotocols")
	}
	if declares(s, core.NewMicroprotocol("c")) {
		t.Fatal("Declares must reject unlisted microprotocols")
	}
	if s.HasBounds() || s.Graph() != nil {
		t.Fatal("Access spec must carry no bounds or graph")
	}
	if _, ok := s.Bound(a); ok {
		t.Fatal("Access spec has no bounds")
	}
}

func TestAccessBoundSpec(t *testing.T) {
	a := core.NewMicroprotocol("a")
	b := core.NewMicroprotocol("b")
	s := core.AccessBound(map[*core.Microprotocol]int{a: 2, b: 5})
	if !s.HasBounds() {
		t.Fatal("HasBounds")
	}
	if n, ok := s.Bound(a); !ok || n != 2 {
		t.Fatalf("Bound(a) = %d, %v", n, ok)
	}
	if n, ok := s.Bound(b); !ok || n != 5 {
		t.Fatalf("Bound(b) = %d, %v", n, ok)
	}
	if len(s.MPs()) != 2 {
		t.Fatalf("MPs = %v", s.MPs())
	}
}

func TestRouteGraphAndSpec(t *testing.T) {
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	hp := p.AddHandler("hp", nopHandler)
	hq := q.AddHandler("hq", nopHandler)
	hq2 := q.AddHandler("hq2", nopHandler)

	g := core.NewRouteGraph().Root(hp).Edge(hp, hq).Edge(hq, hq2)
	if !g.IsRoot(hp) || g.IsRoot(hq) {
		t.Fatal("root declaration wrong")
	}
	if !g.Contains(hp) || !g.Contains(hq) || !g.Contains(hq2) {
		t.Fatal("vertices missing")
	}
	if len(g.Succs(hp)) != 1 || g.Succs(hp)[0] != hq {
		t.Fatalf("Succs(hp) = %v", g.Succs(hp))
	}
	if len(g.Vertices()) != 3 {
		t.Fatalf("Vertices = %v", g.Vertices())
	}

	s := core.Route(g)
	if s.Graph() != g {
		t.Fatal("spec must carry the graph")
	}
	if len(s.MPs()) != 2 || !declares(s, p) || !declares(s, q) {
		t.Fatalf("route spec MPs = %v", s.MPs())
	}
}

// TestPathSpec: one path yields one spec carrying M, per-microprotocol
// visit bounds and the chain graph together.
func TestPathSpec(t *testing.T) {
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	hp := p.AddHandler("hp", nopHandler)
	hq := q.AddHandler("hq", nopHandler)
	spec := core.PathSpec(hp, hq, hp)

	if len(spec.MPs()) != 2 || !declares(spec, p) || !declares(spec, q) {
		t.Fatalf("MPs %v, want [p q]", spec.MPs())
	}
	if n, _ := spec.Bound(p); n != 2 {
		t.Fatalf("Bound(p) = %d, want 2 visits", n)
	}
	if n, _ := spec.Bound(q); n != 1 {
		t.Fatalf("Bound(q) = %d, want 1 visit", n)
	}
	g := spec.Graph()
	if g == nil || !g.IsRoot(hp) || g.IsRoot(hq) || len(g.Succs(hp)) != 1 || g.Succs(hp)[0] != hq || g.Succs(hq)[0] != hp {
		t.Fatal("route is not the chain hp → hq → hp rooted at hp")
	}
}

// declares reports whether mp is in s's declared collection M.
func declares(s *core.Spec, mp *core.Microprotocol) bool { return slices.Contains(s.MPs(), mp) }
