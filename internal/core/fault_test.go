package core_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

// faultStack builds a one-microprotocol stack under VCAbasic with a
// benign handler bound to the returned event.
func faultStack(t *testing.T) (*core.Stack, *core.Microprotocol, *core.EventType) {
	t.Helper()
	s := core.NewStack(cc.NewVCABasic())
	mp := core.NewMicroprotocol("fp")
	h := mp.AddHandler("h", nopHandler)
	s.Register(mp)
	et := core.NewEventType("fe")
	s.Bind(et, h)
	return s, mp, et
}

func TestPanicInRootFunction(t *testing.T) {
	s, mp, _ := faultStack(t)
	err := s.Isolated(core.Access(mp), func(*core.Context) error {
		panic("root boom")
	})
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *core.PanicError", err)
	}
	if pe.Handler != "<root>" || pe.Value != "root boom" {
		t.Errorf("PanicError = %+v", pe)
	}
	if !strings.Contains(pe.Error(), "root boom") {
		t.Errorf("Error() = %q", pe.Error())
	}
	// The stack stays usable.
	if err := s.Isolated(core.Access(mp), func(*core.Context) error { return nil }); err != nil {
		t.Fatalf("follow-up: %v", err)
	}
}

func TestPanicInForkJoinsSiblings(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	mp := core.NewMicroprotocol("fp")
	var sibling atomic.Bool
	h := mp.AddHandler("h", func(ctx *core.Context, _ core.Message) error {
		ctx.Fork(func(*core.Context) error { panic("fork boom") })
		ctx.Fork(func(*core.Context) error {
			sibling.Store(true)
			return nil
		})
		return nil
	})
	s.Register(mp)
	et := core.NewEventType("fe")
	s.Bind(et, h)
	err := s.External(core.Access(mp), et, nil)
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *core.PanicError", err)
	}
	if pe.Handler != "<fork>" {
		t.Errorf("PanicError.Handler = %q", pe.Handler)
	}
	if !sibling.Load() {
		t.Error("sibling fork did not run to completion")
	}
}

// TestPanicErrorNeverUnwrapsToAbort: a handler that panics with the
// retry sentinel must not trick the stack into the rollback loop — a
// panic is a fault, never a retry signal.
func TestPanicErrorNeverUnwrapsToAbort(t *testing.T) {
	pe := &core.PanicError{Value: core.ErrComputationAborted}
	if errors.Is(pe, core.ErrComputationAborted) {
		t.Fatal("PanicError must not unwrap to ErrComputationAborted")
	}
	pe2 := &core.PanicError{Value: core.ErrClosed}
	if !errors.Is(pe2, core.ErrClosed) {
		t.Fatal("other error panic values should stay inspectable")
	}
}

func TestIsolatedCtxPreCancelled(t *testing.T) {
	s, mp, _ := faultStack(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := s.IsolatedCtx(ctx, core.Access(mp), func(*core.Context) error {
		ran = true
		return nil
	})
	var de *core.DeadlineError
	if !errors.As(err, &de) || de.Stage != "spawn" {
		t.Fatalf("err = %v, want spawn-stage *core.DeadlineError", err)
	}
	if ran {
		t.Fatal("root ran under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("DeadlineError must unwrap to the context error")
	}
}

// TestDispatchRejectsAfterCancel: a cancellation mid-computation is
// honoured at the next dispatch — the in-flight handler finishes, the
// next Trigger is refused.
func TestDispatchRejectsAfterCancel(t *testing.T) {
	s, mp, et := faultStack(t)
	ctx, cancel := context.WithCancel(context.Background())
	err := s.IsolatedCtx(ctx, core.Access(mp), func(c *core.Context) error {
		if err := c.Trigger(et, nil); err != nil {
			return err
		}
		cancel()
		return c.Trigger(et, nil)
	})
	var de *core.DeadlineError
	if !errors.As(err, &de) || de.Stage != "dispatch" {
		t.Fatalf("err = %v, want dispatch-stage *core.DeadlineError", err)
	}
}

func TestSpecTimeoutExpiresComputation(t *testing.T) {
	s, mp, _ := faultStack(t)
	spec := core.Access(mp).WithTimeout(10 * time.Millisecond)
	err := s.Isolated(spec, func(c *core.Context) error {
		deadline, ok := c.Ctx().Deadline()
		if !ok || time.Until(deadline) > 10*time.Millisecond {
			t.Error("computation context missing the spec deadline")
		}
		<-c.Ctx().Done()
		return c.Ctx().Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if err := s.Isolated(core.Access(mp), func(*core.Context) error { return nil }); err != nil {
		t.Fatalf("follow-up: %v", err)
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	s, mp, et := faultStack(t)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.External(core.Access(mp), et, nil); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("External after Close = %v, want ErrClosed", err)
	}
	if err := s.Isolated(core.Access(mp), func(*core.Context) error { return nil }); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Isolated after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestCloseDrainsInFlight(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	mp := core.NewMicroprotocol("fp")
	var entered, release atomic.Bool
	h := mp.AddHandler("slow", func(*core.Context, core.Message) error {
		entered.Store(true)
		for !release.Load() {
			runtime.Gosched()
		}
		return nil
	})
	s.Register(mp)
	et := core.NewEventType("fe")
	s.Bind(et, h)

	compDone := make(chan error, 1)
	go func() { compDone <- s.External(core.Access(mp), et, nil) }()
	for !entered.Load() {
		runtime.Gosched()
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- s.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned %v while a computation was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	release.Store(true)
	if err := <-compDone; err != nil {
		t.Fatalf("in-flight computation: %v", err)
	}
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the stack drained")
	}
}

func TestCloseContextTimesOutOnStuckComputation(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	mp := core.NewMicroprotocol("fp")
	var entered, release atomic.Bool
	h := mp.AddHandler("stuck", func(*core.Context, core.Message) error {
		entered.Store(true)
		for !release.Load() {
			runtime.Gosched()
		}
		return nil
	})
	s.Register(mp)
	et := core.NewEventType("fe")
	s.Bind(et, h)
	compDone := make(chan error, 1)
	go func() { compDone <- s.External(core.Access(mp), et, nil) }()
	for !entered.Load() {
		runtime.Gosched()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.CloseContext(ctx)
	var de *core.DeadlineError
	if !errors.As(err, &de) || de.Stage != "drain" {
		t.Fatalf("CloseContext = %v, want drain-stage *core.DeadlineError", err)
	}
	release.Store(true)
	if err := <-compDone; err != nil {
		t.Fatalf("stuck computation after release: %v", err)
	}
}
