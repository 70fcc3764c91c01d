package cc_test

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestRouteCallerThroughFork: a thread forked by handler hp calls with
// hp as the route caller, so the edge hp→hq admits the call.
func TestRouteCallerThroughFork(t *testing.T) {
	var f *routeFixture
	ran := false
	f = newRouteFixture(map[string]core.HandlerFunc{
		"hp": func(ctx *core.Context, _ core.Message) error {
			ctx.Fork(func(fctx *core.Context) error {
				return fctx.Trigger(f.eQ, nil)
			})
			return nil
		},
		"hq": func(*core.Context, core.Message) error { ran = true; return nil },
	})
	g := core.NewRouteGraph().Root(f.hp).Edge(f.hp, f.hq)
	if err := f.s.External(core.Route(g), f.eP, nil); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("forked trigger did not run")
	}
}

// TestRouteAsyncRequestErrorInCallerThread: the route check of an
// asynchronous trigger fails in the thread that issued it (paper §4).
func TestRouteAsyncRequestErrorInCallerThread(t *testing.T) {
	var f *routeFixture
	var innerErr error
	f = newRouteFixture(map[string]core.HandlerFunc{
		"hp": func(ctx *core.Context, _ core.Message) error {
			innerErr = ctx.AsyncTrigger(f.eR, nil) // no route hp→hr
			return nil
		},
	})
	g := core.NewRouteGraph().Root(f.hp).Edge(f.hr, f.hq).Edge(f.hp, f.hq)
	if err := f.s.External(core.Route(g), f.eP, nil); err == nil {
		t.Fatal("expected error")
	}
	var nr *core.NoRouteError
	if !errors.As(innerErr, &nr) {
		t.Fatalf("inner err = %v (must surface synchronously)", innerErr)
	}
}

// TestRouteTriggerAllMultipleBindings: one event bound to handlers of two
// microprotocols under a route spec; both edges declared, both run.
func TestRouteTriggerAllMultipleBindings(t *testing.T) {
	s := core.NewStack(cc.NewVCARoute())
	p := core.NewMicroprotocol("P")
	q := core.NewMicroprotocol("Q")
	r := core.NewMicroprotocol("R")
	var ranQ, ranR bool
	fanout := core.NewEventType("fanout")
	hq := q.AddHandler("hq", func(*core.Context, core.Message) error { ranQ = true; return nil })
	hr := r.AddHandler("hr", func(*core.Context, core.Message) error { ranR = true; return nil })
	hp := p.AddHandler("hp", func(ctx *core.Context, _ core.Message) error {
		return ctx.TriggerAll(fanout, nil)
	})
	s.Register(p, q, r)
	root := core.NewEventType("root")
	s.Bind(root, hp)
	s.Bind(fanout, hq, hr)
	g := core.NewRouteGraph().Root(hp).Edge(hp, hq).Edge(hp, hr)
	if err := s.External(core.Route(g), root, nil); err != nil {
		t.Fatal(err)
	}
	if !ranQ || !ranR {
		t.Fatalf("ranQ=%v ranR=%v", ranQ, ranR)
	}
}

// TestEquivalentFinalStateAcrossControllers: the same workload produces
// the same final counters under every isolating controller — the
// observable meaning of "equivalent to some serial execution".
func TestEquivalentFinalStateAcrossControllers(t *testing.T) {
	scripts := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 1, 2}, {0, 2}, {2}, {0, 0, 1}}
	want := []int{5, 5, 5}
	mks := map[string]func() core.Controller{
		"serial":    func() core.Controller { return cc.NewSerial() },
		"vca-basic": func() core.Controller { return cc.NewVCABasic() },
		"vca-bound": func() core.Controller { return cc.NewVCABound() },
		"vca-route": func() core.Controller { return cc.NewVCARoute() },
	}
	for name, mk := range mks {
		p := newProto(mk(), 3)
		var wg sync.WaitGroup
		for _, seq := range scripts {
			wg.Add(1)
			go func(seq []int) {
				defer wg.Done()
				if err := p.run(seq); err != nil {
					t.Error(err)
				}
			}(seq)
		}
		wg.Wait()
		for i, w := range want {
			if p.counters[i] != w {
				t.Errorf("%s: counter[%d] = %d, want %d", name, i, p.counters[i], w)
			}
		}
	}
}

// TestTracerSeesSpawnAndComplete: the recorder observes the full
// computation lifecycle in order.
func TestTracerLifecycle(t *testing.T) {
	rec := trace.NewRecorder()
	s := core.NewStack(cc.NewVCABasic(), core.WithTracer(rec))
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nop)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	if err := s.External(core.Access(p), et, nil); err != nil {
		t.Fatal(err)
	}
	es := rec.Entries()
	if len(es) != 4 {
		t.Fatalf("entries = %v", es)
	}
	wantKinds := []trace.Kind{trace.KindSpawn, trace.KindStart, trace.KindEnd, trace.KindComplete}
	for i, k := range wantKinds {
		if es[i].Kind != k {
			t.Fatalf("entry %d = %v, want %v", i, es[i].Kind, k)
		}
	}
	if es[1].Event != et || es[1].Handler != h {
		t.Fatal("start entry payload wrong")
	}
}
