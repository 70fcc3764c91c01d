package core_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
)

func TestTriggerSingleHandler(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	var got core.Message
	h := p.AddHandler("h", func(ctx *core.Context, msg core.Message) error {
		got = msg
		if ctx.Handler() != ctx.Stack().MP("p").Handler("h") {
			t.Error("ctx.Handler mismatch")
		}
		return nil
	})
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)

	err := s.Isolated(core.Access(p), func(ctx *core.Context) error {
		if ctx.Handler() != nil {
			t.Error("root ctx.Handler must be nil")
		}
		if ctx.Stack() != s {
			t.Error("ctx.Stack mismatch")
		}
		return ctx.Trigger(et, "payload")
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "payload" {
		t.Fatalf("msg = %v", got)
	}
}

func TestTriggerUnbound(t *testing.T) {
	s := newNoneStack(t)
	et := core.NewEventType("nobody")
	err := s.Isolated(core.Access(), func(ctx *core.Context) error {
		return ctx.Trigger(et, nil)
	})
	var ue *core.UnboundError
	if !errors.As(err, &ue) || ue.Event != "nobody" {
		t.Fatalf("err = %v", err)
	}
}

func TestTriggerAmbiguous(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	h1 := p.AddHandler("h1", nopHandler)
	h2 := p.AddHandler("h2", nopHandler)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h1, h2)

	err := s.Isolated(core.Access(p), func(ctx *core.Context) error {
		return ctx.Trigger(et, nil)
	})
	var ae *core.AmbiguousError
	if !errors.As(err, &ae) || ae.N != 2 {
		t.Fatalf("err = %v", err)
	}
	// AsyncTrigger has the same single-handler contract.
	err = s.Isolated(core.Access(p), func(ctx *core.Context) error {
		return ctx.AsyncTrigger(et, nil)
	})
	if !errors.As(err, &ae) {
		t.Fatalf("async err = %v", err)
	}
}

func TestTriggerAllRunsAllInOrder(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	var order []string
	mk := func(name string, fail bool) *core.Handler {
		return p.AddHandler(name, func(*core.Context, core.Message) error {
			order = append(order, name)
			if fail {
				return errors.New("boom-" + name)
			}
			return nil
		})
	}
	a := mk("a", false)
	b := mk("b", true) // failure must not stop c
	c := mk("c", false)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, a, b, c)

	err := s.Isolated(core.Access(p), func(ctx *core.Context) error {
		return ctx.TriggerAll(et, nil)
	})
	if err == nil || err.Error() != "boom-b" {
		t.Fatalf("err = %v", err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestTriggerAllUnboundIsNoop(t *testing.T) {
	s := newNoneStack(t)
	err := s.Isolated(core.Access(), func(ctx *core.Context) error {
		return ctx.TriggerAll(core.NewEventType("nobody"), nil)
	})
	if err != nil {
		t.Fatalf("TriggerAll on unbound event: %v", err)
	}
}

func TestAsyncTriggerAllWaitsForCompletion(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	var n atomic.Int32
	var hs []*core.Handler
	for _, name := range []string{"a", "b", "c"} {
		hs = append(hs, p.AddHandler(name, func(*core.Context, core.Message) error {
			n.Add(1)
			return nil
		}))
	}
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, hs...)

	if err := s.Isolated(core.Access(p), func(ctx *core.Context) error {
		return ctx.AsyncTriggerAll(et, nil)
	}); err != nil {
		t.Fatal(err)
	}
	// Isolated returns only after all computation threads terminated.
	if n.Load() != 3 {
		t.Fatalf("ran %d handlers, want 3", n.Load())
	}
}

func TestAsyncHandlerErrorSurfacesFromIsolated(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	boom := errors.New("async boom")
	h := p.AddHandler("h", func(*core.Context, core.Message) error { return boom })
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)

	err := s.Isolated(core.Access(p), func(ctx *core.Context) error {
		return ctx.AsyncTrigger(et, nil)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestNestedSyncTriggers(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	etQ := core.NewEventType("toQ")
	var order []string
	hq := q.AddHandler("hq", func(*core.Context, core.Message) error {
		order = append(order, "hq")
		return nil
	})
	hp := p.AddHandler("hp", func(ctx *core.Context, _ core.Message) error {
		order = append(order, "hp-pre")
		if err := ctx.Trigger(etQ, nil); err != nil {
			return err
		}
		order = append(order, "hp-post")
		return nil
	})
	s.Register(p, q)
	etP := core.NewEventType("toP")
	s.Bind(etP, hp)
	s.Bind(etQ, hq)

	if err := s.External(core.Access(p, q), etP, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"hp-pre", "hq", "hp-post"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestForkJoinsBeforeIsolatedReturns(t *testing.T) {
	s := newNoneStack(t)
	var mu sync.Mutex
	var done []int
	err := s.Isolated(core.Access(), func(ctx *core.Context) error {
		for i := 0; i < 8; i++ {
			i := i
			ctx.Fork(func(*core.Context) error {
				mu.Lock()
				done = append(done, i)
				mu.Unlock()
				return nil
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 8 {
		t.Fatalf("forks completed = %d, want 8", len(done))
	}
}

func TestForkErrorRecorded(t *testing.T) {
	s := newNoneStack(t)
	boom := errors.New("fork boom")
	err := s.Isolated(core.Access(), func(ctx *core.Context) error {
		ctx.Fork(func(*core.Context) error { return boom })
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestForkInsideHandlerDelaysHandlerEnd(t *testing.T) {
	rec := make(chan string, 3)
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", func(ctx *core.Context, _ core.Message) error {
		gate := make(chan struct{})
		ctx.Fork(func(*core.Context) error {
			<-gate
			rec <- "fork"
			return nil
		})
		rec <- "body"
		close(gate)
		return nil
	})
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	if err := s.External(core.Access(p), et, nil); err != nil {
		t.Fatal(err)
	}
	rec <- "after"
	if a, b, c := <-rec, <-rec, <-rec; a != "body" || b != "fork" || c != "after" {
		t.Fatalf("order = %v %v %v", a, b, c)
	}
}

func TestRootErrorReturned(t *testing.T) {
	s := newNoneStack(t)
	boom := errors.New("root boom")
	if err := s.Isolated(core.Access(), func(*core.Context) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestFirstErrorWins(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	first := errors.New("first")
	h := p.AddHandler("h", func(*core.Context, core.Message) error { return first })
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	err := s.Isolated(core.Access(p), func(ctx *core.Context) error {
		_ = ctx.Trigger(et, nil)
		return errors.New("second")
	})
	if !errors.Is(err, first) {
		t.Fatalf("err = %v, want first", err)
	}
}

// TestConcurrentComputationsUnderNone exercises the plumbing with many
// concurrent computations; correctness of shared counters is guaranteed
// here by atomics, not by the controller.
func TestConcurrentComputationsUnderNone(t *testing.T) {
	s := core.NewStack(cc.NewNone())
	p := core.NewMicroprotocol("p")
	var n atomic.Int64
	h := p.AddHandler("h", func(*core.Context, core.Message) error {
		n.Add(1)
		return nil
	})
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	spec := core.Access(p)

	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.External(spec, et, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n.Load() != 64 {
		t.Fatalf("n = %d", n.Load())
	}
}

// emitsFixture binds a counting sink to out and a caller to in whose body
// issues out through form. declare picks the caller's Emits: "none" never
// calls it, "out" declares out, "other" declares only an unrelated event.
func emitsFixture(t *testing.T, declare string, form func(*core.Context, *core.EventType) error) (s *core.Stack, in *core.EventType, sunk *atomic.Int32) {
	t.Helper()
	s = newNoneStack(t)
	p := core.NewMicroprotocol("p")
	in, out := core.NewEventType("in"), core.NewEventType("out")
	sunk = new(atomic.Int32)
	sink := p.AddHandler("sink", func(*core.Context, core.Message) error {
		sunk.Add(1)
		return nil
	})
	caller := p.AddHandler("caller", func(ctx *core.Context, _ core.Message) error {
		return form(ctx, out)
	})
	switch declare {
	case "out":
		caller.Emits(out)
	case "other":
		caller.Emits(core.NewEventType("other"))
	}
	s.Register(p)
	s.Bind(in, caller)
	s.Bind(out, sink)
	return s, in, sunk
}

// triggerForms issues an event through each trigger construct, and from
// a forked thread.
var triggerForms = map[string]func(*core.Context, *core.EventType) error{
	"Trigger":         func(ctx *core.Context, et *core.EventType) error { return ctx.Trigger(et, nil) },
	"TriggerAll":      func(ctx *core.Context, et *core.EventType) error { return ctx.TriggerAll(et, nil) },
	"AsyncTrigger":    func(ctx *core.Context, et *core.EventType) error { return ctx.AsyncTrigger(et, nil) },
	"AsyncTriggerAll": func(ctx *core.Context, et *core.EventType) error { return ctx.AsyncTriggerAll(et, nil) },
	"Fork": func(ctx *core.Context, et *core.EventType) error {
		ctx.Fork(func(fctx *core.Context) error { return fctx.Trigger(et, nil) })
		return nil
	},
}

// TestTriggerRefusesUndeclaredEvent: a handler whose Emits omits an event
// is refused on every trigger form, and from a thread it forked, before
// the bound handler runs.
func TestTriggerRefusesUndeclaredEvent(t *testing.T) {
	for name, form := range triggerForms {
		t.Run(name, func(t *testing.T) {
			s, in, sunk := emitsFixture(t, "other", form)
			err := s.External(core.Access(s.MP("p")), in, nil)
			var ee *core.EmitsError
			if !errors.As(err, &ee) || ee.Handler != "p.caller" || ee.Event != "out" {
				t.Fatalf("err = %v, want EmitsError for p.caller triggering out", err)
			}
			if n := sunk.Load(); n != 0 {
				t.Fatalf("refused trigger ran the sink %d times", n)
			}
		})
	}
}

// TestTriggerEmitsExempt: a declared event passes on every form, and so
// does any event from a handler that never called Emits or from the root
// expression.
func TestTriggerEmitsExempt(t *testing.T) {
	for name, form := range triggerForms {
		for _, declare := range []string{"out", "none"} {
			t.Run(name+"/"+declare, func(t *testing.T) {
				s, in, sunk := emitsFixture(t, declare, form)
				if err := s.External(core.Access(s.MP("p")), in, nil); err != nil {
					t.Fatal(err)
				}
				if n := sunk.Load(); n != 1 {
					t.Fatalf("sink ran %d times, want 1", n)
				}
			})
		}
		t.Run(name+"/root", func(t *testing.T) {
			s, _, sunk := emitsFixture(t, "other", form)
			out := core.NewEventType("root-out")
			s.Bind(out, s.MP("p").Handler("sink"))
			if err := s.Isolated(core.Access(s.MP("p")), func(ctx *core.Context) error { return form(ctx, out) }); err != nil {
				t.Fatal(err)
			}
			if n := sunk.Load(); n != 1 {
				t.Fatalf("sink ran %d times, want 1", n)
			}
		})
	}
}
