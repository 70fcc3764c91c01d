package cc_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

func TestVCARouteName(t *testing.T) {
	if cc.NewVCARoute().Name() != "vca-route" {
		t.Fatal("name")
	}
}

func TestVCARouteRequiresGraph(t *testing.T) {
	s := core.NewStack(cc.NewVCARoute())
	p := core.NewMicroprotocol("p")
	p.AddHandler("h", nop)
	s.Register(p)
	err := s.Isolated(core.Access(p), nil)
	var se *core.SpecError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want SpecError", err)
	}
}

// routeFixture: three microprotocols P, Q, R. P has a second, inert
// handler hp2 (so another computation can touch P without cascading into
// Q), and Q has a second handler hq2 to exercise multi-handler
// microprotocols.
type routeFixture struct {
	s                    *core.Stack
	p, q, r              *core.Microprotocol
	hp, hp2, hq, hq2, hr *core.Handler
	eP, eP2, eQ, eQ2, eR *core.EventType
}

func newRouteFixture(fns map[string]core.HandlerFunc) *routeFixture {
	f := &routeFixture{
		s: core.NewStack(cc.NewVCARoute()),
		p: core.NewMicroprotocol("P"),
		q: core.NewMicroprotocol("Q"),
		r: core.NewMicroprotocol("R"),
	}
	get := func(name string) core.HandlerFunc {
		if fn := fns[name]; fn != nil {
			return fn
		}
		return nop
	}
	f.hp = f.p.AddHandler("hp", get("hp"))
	f.hp2 = f.p.AddHandler("hp2", get("hp2"))
	f.hq = f.q.AddHandler("hq", get("hq"))
	f.hq2 = f.q.AddHandler("hq2", get("hq2"))
	f.hr = f.r.AddHandler("hr", get("hr"))
	f.s.Register(f.p, f.q, f.r)
	f.eP, f.eP2, f.eQ, f.eQ2, f.eR = core.NewEventType("eP"), core.NewEventType("eP2"), core.NewEventType("eQ"), core.NewEventType("eQ2"), core.NewEventType("eR")
	f.s.Bind(f.eP, f.hp)
	f.s.Bind(f.eP2, f.hp2)
	f.s.Bind(f.eQ, f.hq)
	f.s.Bind(f.eQ2, f.hq2)
	f.s.Bind(f.eR, f.hr)
	return f
}

func TestVCARouteNonRootDirectCall(t *testing.T) {
	f := newRouteFixture(nil)
	g := core.NewRouteGraph().Root(f.hp).Edge(f.hp, f.hq)
	// The root expression calls hq directly, but only hp is a root.
	err := f.s.External(core.Route(g), f.eQ, nil)
	var nr *core.NoRouteError
	if !errors.As(err, &nr) || nr.From != "" {
		t.Fatalf("err = %v", err)
	}
}

func TestVCARouteUndeclaredEdge(t *testing.T) {
	var innerErr error
	var f *routeFixture
	f = newRouteFixture(map[string]core.HandlerFunc{
		"hp": func(ctx *core.Context, _ core.Message) error {
			innerErr = ctx.Trigger(f.eR, nil) // no route hp→…→hr
			return nil
		},
	})
	g := core.NewRouteGraph().Root(f.hp).Edge(f.hp, f.hq)
	// R must be a vertex (else the error is UndeclaredError), but must
	// not be reachable from hp: hang it upstream with hr→hq.
	g.Edge(f.hr, f.hq)
	if err := f.s.External(core.Route(g), f.eP, nil); err == nil {
		t.Fatal("expected error from Isolated")
	}
	var nr *core.NoRouteError
	if !errors.As(innerErr, &nr) || nr.From != "P.hp" || nr.To != "R.hr" {
		t.Fatalf("inner err = %v", innerErr)
	}
}

func TestVCARouteUndeclaredMicroprotocol(t *testing.T) {
	var innerErr error
	var f *routeFixture
	f = newRouteFixture(map[string]core.HandlerFunc{
		"hp": func(ctx *core.Context, _ core.Message) error {
			innerErr = ctx.Trigger(f.eR, nil) // R not even a vertex
			return nil
		},
	})
	g := core.NewRouteGraph().Root(f.hp).Edge(f.hp, f.hq)
	if err := f.s.External(core.Route(g), f.eP, nil); err == nil {
		t.Fatal("expected error")
	}
	var ue *core.UndeclaredError
	if !errors.As(innerErr, &ue) || ue.MP != "R" {
		t.Fatalf("inner err = %v", innerErr)
	}
}

// TestVCARoutePathCall: rule 2 admits any call with a route (path), not
// only a direct edge: hp may call hr through hp→hq→hr.
func TestVCARoutePathCall(t *testing.T) {
	var f *routeFixture
	ran := false
	f = newRouteFixture(map[string]core.HandlerFunc{
		"hp": func(ctx *core.Context, _ core.Message) error {
			return ctx.Trigger(f.eR, nil)
		},
		"hr": func(*core.Context, core.Message) error { ran = true; return nil },
	})
	g := core.NewRouteGraph().Root(f.hp).Edge(f.hp, f.hq).Edge(f.hq, f.hr)
	if err := f.s.External(core.Route(g), f.eP, nil); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("hr did not run")
	}
}

func TestVCARouteSelfLoopRecursion(t *testing.T) {
	var f *routeFixture
	n := 0
	f = newRouteFixture(map[string]core.HandlerFunc{
		"hp": func(ctx *core.Context, _ core.Message) error {
			n++
			if n < 4 {
				return ctx.Trigger(f.eP, nil)
			}
			return nil
		},
	})
	g := core.NewRouteGraph().Root(f.hp).Edge(f.hp, f.hp)
	if err := f.s.External(core.Route(g), f.eP, nil); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("n = %d", n)
	}
}

// TestVCARouteEarlyRelease is rule 4(b): after hp exits and the root
// returns, P is unreachable from the still-active hq, so a second
// computation may enter P while the first is still inside Q.
func TestVCARouteEarlyRelease(t *testing.T) {
	var f *routeFixture
	holdQ := make(chan struct{})
	inQ := make(chan struct{})
	f = newRouteFixture(map[string]core.HandlerFunc{
		"hp": func(ctx *core.Context, _ core.Message) error {
			return ctx.AsyncTrigger(f.eQ, nil)
		},
		"hq": func(*core.Context, core.Message) error {
			close(inQ)
			<-holdQ
			return nil
		},
	})
	g1 := core.NewRouteGraph().Root(f.hp).Edge(f.hp, f.hq)
	k1done := make(chan error, 1)
	go func() { k1done <- f.s.External(core.Route(g1), f.eP, nil) }()
	<-inQ

	// k2 uses only P, through the inert hp2 (hp would cascade into Q).
	g2 := core.NewRouteGraph().Root(f.hp2)
	k2done := make(chan error, 1)
	go func() { k2done <- f.s.External(core.Route(g2), f.eP2, nil) }()
	select {
	case err := <-k2done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("k2 blocked on P although rule 4(b) should have released it")
	}
	close(holdQ)
	if err := <-k1done; err != nil {
		t.Fatal(err)
	}
}

// TestVCARouteNoReleaseWhileReachable: P must NOT be released while an
// active handler can still reach it (edge hq→hp exists), even though hp is
// inactive.
func TestVCARouteNoReleaseWhileReachable(t *testing.T) {
	var f *routeFixture
	holdQ := make(chan struct{})
	inQ := make(chan struct{})
	f = newRouteFixture(map[string]core.HandlerFunc{
		"hp": func(ctx *core.Context, _ core.Message) error {
			return ctx.AsyncTrigger(f.eQ, nil)
		},
		"hq": func(*core.Context, core.Message) error {
			close(inQ)
			<-holdQ
			return nil
		},
	})
	// Cycle: hp→hq→hp. While hq runs, P stays reachable.
	g1 := core.NewRouteGraph().Root(f.hp).Edge(f.hp, f.hq).Edge(f.hq, f.hp)
	k1done := make(chan error, 1)
	go func() { k1done <- f.s.External(core.Route(g1), f.eP, nil) }()
	<-inQ

	g2 := core.NewRouteGraph().Root(f.hp2)
	k2done := make(chan error, 1)
	go func() { k2done <- f.s.External(core.Route(g2), f.eP2, nil) }()
	select {
	case <-k2done:
		t.Fatal("P released while still reachable from active hq")
	case <-time.After(50 * time.Millisecond):
	}
	close(holdQ)
	if err := <-k1done; err != nil {
		t.Fatal(err)
	}
	if err := <-k2done; err != nil { // rule 3 releases at completion
		t.Fatal(err)
	}
}

// TestVCARouteCallAfterRelease: calling a handler whose microprotocol was
// already released by rule 4(b) is a routing violation.
func TestVCARouteCallAfterRelease(t *testing.T) {
	var f *routeFixture
	var lateErr error
	released := make(chan struct{})
	f = newRouteFixture(map[string]core.HandlerFunc{
		"hp": func(ctx *core.Context, _ core.Message) error {
			return ctx.AsyncTrigger(f.eQ, nil)
		},
		"hq": func(ctx *core.Context, _ core.Message) error {
			<-released // wait until P was early-released
			lateErr = ctx.Trigger(f.eP, nil)
			return nil
		},
	})
	// hq→hp edge declared... no: with that edge P stays reachable. The
	// violation needs P released, so no edge back: route check fails for
	// lack of a path *and* for absence from the graph.
	g := core.NewRouteGraph().Root(f.hp).Edge(f.hp, f.hq)
	k1done := make(chan error, 1)
	go func() { k1done <- f.s.External(core.Route(g), f.eP, nil) }()

	// P is released once hp exits and the root returns; give it a moment.
	time.Sleep(50 * time.Millisecond)
	close(released)
	if err := <-k1done; err == nil {
		t.Fatal("expected routing violation")
	}
	var nr *core.NoRouteError
	if !errors.As(lateErr, &nr) {
		t.Fatalf("late err = %v", lateErr)
	}
}

// TestVCARouteMultiHandlerMicroprotocol: a microprotocol is released only
// when ALL of its handlers are inactive and unreachable.
func TestVCARouteMultiHandlerMicroprotocol(t *testing.T) {
	var f *routeFixture
	holdQ2 := make(chan struct{})
	inQ2 := make(chan struct{})
	f = newRouteFixture(map[string]core.HandlerFunc{
		"hp": func(ctx *core.Context, _ core.Message) error {
			return ctx.AsyncTrigger(f.eQ2, nil)
		},
		"hq2": func(*core.Context, core.Message) error {
			close(inQ2)
			<-holdQ2
			return nil
		},
	})
	// hq (of Q) is never called, but hq2 (also of Q) runs: Q must be held.
	g1 := core.NewRouteGraph().Root(f.hp).Edge(f.hp, f.hq2).Edge(f.hp, f.hq)
	k1done := make(chan error, 1)
	go func() { k1done <- f.s.External(core.Route(g1), f.eP, nil) }()
	<-inQ2

	g2 := core.NewRouteGraph().Root(f.hq)
	k2done := make(chan error, 1)
	go func() { k2done <- f.s.External(core.Route(g2), f.eQ, nil) }()
	select {
	case <-k2done:
		t.Fatal("Q released while hq2 active")
	case <-time.After(50 * time.Millisecond):
	}
	close(holdQ2)
	if err := <-k1done; err != nil {
		t.Fatal(err)
	}
	if err := <-k2done; err != nil {
		t.Fatal(err)
	}
}

func TestVCARouteHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		hammer(t, cc.NewVCARoute(), 4, randScripts(rng, 12, 4, 6))
	}
}

func TestVCARoutePropertyIsolation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		hammer(t, cc.NewVCARoute(), m, randScripts(rng, 2+rng.Intn(8), m, 5))
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
