package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
)

// newNoneStack builds a stack under the unrestricted controller for
// plumbing tests that don't exercise concurrency control.
func newNoneStack(t *testing.T) *core.Stack {
	t.Helper()
	return core.NewStack(cc.NewNone())
}

func TestNewStackNilControllerPanics(t *testing.T) {
	mustPanic(t, "nil controller", func() { core.NewStack(nil) })
}

func TestRegisterAndLookup(t *testing.T) {
	s := core.NewStack(cc.NewNone(), core.WithName("test"))
	if s.Name() != "test" {
		t.Fatalf("name = %q", s.Name())
	}
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	s.Register(p, q)
	if s.MP("p") != p || s.MP("q") != q || s.MP("zz") != nil {
		t.Fatal("MP lookup mismatch")
	}
	mustPanic(t, "re-register", func() { s.Register(p) })
	p2 := core.NewMicroprotocol("p")
	mustPanic(t, "duplicate name", func() { s.Register(p2) })
}

func TestBindOrderAndBound(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	h1 := p.AddHandler("h1", nopHandler)
	h2 := p.AddHandler("h2", nopHandler)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h2)
	s.Bind(et, h1)
	hs := s.Bound(et)
	if len(hs) != 2 || hs[0] != h2 || hs[1] != h1 {
		t.Fatalf("Bound = %v", hs)
	}
	if got := s.Bound(core.NewEventType("other")); len(got) != 0 {
		t.Fatalf("unbound event type: %v", got)
	}
}

func TestBindForeignHandlerPanics(t *testing.T) {
	s := newNoneStack(t)
	other := core.NewMicroprotocol("other") // never registered
	h := other.AddHandler("h", nopHandler)
	mustPanic(t, "foreign handler", func() { s.Bind(core.NewEventType("e"), h) })
}

func TestSealOnFirstIsolated(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	p.AddHandler("h", nopHandler)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, p.Handler("h"))

	if err := s.External(core.Access(p), et, nil); err != nil {
		t.Fatalf("External: %v", err)
	}
	mustPanic(t, "Bind after seal", func() { s.Bind(core.NewEventType("e2"), p.Handler("h")) })
	mustPanic(t, "Register after seal", func() { s.Register(core.NewMicroprotocol("q")) })
	mustPanic(t, "AddHandler after seal", func() { p.AddHandler("late", nopHandler) })
}

func TestRebind(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	var got []string
	mk := func(name string) core.HandlerFunc {
		return func(*core.Context, core.Message) error {
			got = append(got, name)
			return nil
		}
	}
	h1 := p.AddHandler("h1", mk("h1"))
	h2 := p.AddHandler("h2", mk("h2"))
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h1)

	spec := core.Access(p)
	if err := s.External(spec, et, nil); err != nil {
		t.Fatal(err)
	}
	// Rebind while quiescent succeeds and changes dispatch.
	if err := s.Rebind(et, h2); err != nil {
		t.Fatalf("Rebind: %v", err)
	}
	if err := s.External(spec, et, nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "h1" || got[1] != "h2" {
		t.Fatalf("dispatch order = %v", got)
	}
}

func TestRebindWhileActiveFails(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nopHandler)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)

	inComp := make(chan struct{})
	release := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- s.Isolated(core.Access(p), func(ctx *core.Context) error {
			close(inComp)
			<-release
			return nil
		})
	}()
	<-inComp
	if err := s.Rebind(et, h); !errors.Is(err, core.ErrActiveComputations) {
		t.Fatalf("Rebind during computation: %v", err)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := s.Rebind(et, h); err != nil {
		t.Fatalf("Rebind after completion: %v", err)
	}
}

func TestIsolatedNilRoot(t *testing.T) {
	s := newNoneStack(t)
	if err := s.Isolated(core.Access(), nil); err != nil {
		t.Fatalf("nil root: %v", err)
	}
}

func TestIsolatedAsync(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	ran := false
	h := p.AddHandler("h", func(*core.Context, core.Message) error {
		ran = true
		return nil
	})
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)

	done := s.IsolatedAsync(core.Access(p), func(ctx *core.Context) error {
		return ctx.Trigger(et, nil)
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("handler did not run")
	}
}

func TestComputationIDsIncrease(t *testing.T) {
	s := newNoneStack(t)
	var ids []uint64
	for i := 0; i < 3; i++ {
		if err := s.Isolated(core.Access(), func(ctx *core.Context) error {
			ids = append(ids, ctx.Computation().ID())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(ids) != 3 || !(ids[0] < ids[1] && ids[1] < ids[2]) {
		t.Fatalf("ids = %v", ids)
	}
}

// TestBindAfterSealPanicNamesBinding checks the construction-order panic
// names the event, the handlers being bound, the stack, and — now that
// "sealed" is an epoch, not forever — the live epoch and the Reconfigure
// way out.
func TestBindAfterSealPanicNamesBinding(t *testing.T) {
	s := core.NewStack(cc.NewNone(), core.WithName("audit"))
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nopHandler)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	if err := s.External(core.Access(p), et, nil); err != nil {
		t.Fatal(err)
	}
	late := core.NewEventType("late")
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{`"late"`, "p.h", `"audit"`, "Rebind", "epoch 1", "Reconfigure"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q missing %q", msg, want)
			}
		}
	}()
	s.Bind(late, h)
	t.Fatal("Bind after seal did not panic")
}

// TestPostSealPanicsNameEpoch pins the epoch identity in every post-seal
// mutation panic: after a reconfiguration the messages must name the
// *current* epoch, so the error points at the configuration actually
// live when the late mutation happened.
func TestPostSealPanicsNameEpoch(t *testing.T) {
	s := core.NewStack(cc.NewNone(), core.WithName("late"))
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nopHandler)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	if err := s.External(core.Access(p), et, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(func(*core.Epoch) {}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if got := s.CurrentEpoch(); got != 2 {
		t.Fatalf("CurrentEpoch = %d, want 2", got)
	}
	check := func(name string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if msg == "" {
				t.Errorf("%s after seal did not panic with a message", name)
				return
			}
			for _, want := range []string{"epoch 2", "Reconfigure"} {
				if !strings.Contains(msg, want) {
					t.Errorf("%s panic %q missing %q", name, msg, want)
				}
			}
		}()
		fn()
	}
	check("Register", func() { s.Register(core.NewMicroprotocol("q")) })
	check("AddHandler", func() { p.AddHandler("late", nopHandler) })
	check("SetSnapshotter", func() { p.SetSnapshotter(nil) })
	check("Bind", func() { s.Bind(core.NewEventType("e2"), h) })
	check("Emits", func() { h.Emits(et) })
}
