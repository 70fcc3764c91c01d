package cc_test

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cctest"
	"repro/internal/core"
	"repro/internal/trace"
)

// faultCase enumerates every controller for the fault-containment
// regressions. Unlike the conformance battery, None is included in the
// panic test: even a non-isolating controller must survive a panicking
// handler.
type faultCase struct {
	name string
	new  func() core.Controller
}

var faultCases = []faultCase{
	{"serial", func() core.Controller { return cc.NewSerial() }},
	{"none", func() core.Controller { return cc.NewNone() }},
	{"vca-basic", func() core.Controller { return cc.NewVCABasic() }},
	{"vca-bound", func() core.Controller { return cc.NewVCABound() }},
	{"vca-route", func() core.Controller { return cc.NewVCARoute() }},
	{"vca-rw", func() core.Controller { return cc.NewVCARW() }},
	{"wait-die", func() core.Controller { return cc.NewWaitDie() }},
}

type nopSnap struct{}

func (nopSnap) Snapshot() any { return nil }
func (nopSnap) Restore(any)   {}

// faultFixture is a two-microprotocol stack: mp0 carries a panicking
// handler and a counting one (which chains to mp1's counter), so a
// follow-up computation overlapping the panicked footprint proves the
// controller released everything.
type faultFixture struct {
	ctrl        core.Controller
	stack       *core.Stack
	rec         *trace.Recorder
	mp0, mp1    *core.Microprotocol
	hBoom       *core.Handler
	hOk, hOk1   *core.Handler
	hSlow       *core.Handler
	evBoom      *core.EventType
	evOk, evOk1 *core.EventType
	evSlow      *core.EventType
	count       atomic.Int64
	slowEntered atomic.Bool
	slowRelease atomic.Bool
	slowBoom    atomic.Bool // hSlow panics (after release) instead of returning
}

func newFaultFixture(c faultCase) *faultFixture {
	f := &faultFixture{rec: trace.NewRecorder(), ctrl: c.new()}
	f.stack = core.NewStack(f.ctrl, core.WithTracer(f.rec))
	f.mp0 = core.NewMicroprotocol("fmp0")
	f.mp1 = core.NewMicroprotocol("fmp1")
	f.mp0.SetSnapshotter(nopSnap{})
	f.mp1.SetSnapshotter(nopSnap{})
	f.hBoom = f.mp0.AddHandler("boom", func(*core.Context, core.Message) error {
		panic("kaboom")
	})
	f.evOk1 = core.NewEventType("fok1")
	f.hOk = f.mp0.AddHandler("ok", func(ctx *core.Context, _ core.Message) error {
		f.count.Add(1)
		return ctx.Trigger(f.evOk1, nil)
	})
	f.hOk1 = f.mp1.AddHandler("ok1", func(*core.Context, core.Message) error {
		f.count.Add(1)
		return nil
	})
	f.hSlow = f.mp0.AddHandler("slow", func(*core.Context, core.Message) error {
		f.slowEntered.Store(true)
		for !f.slowRelease.Load() {
			runtime.Gosched()
		}
		if f.slowBoom.Load() {
			panic("late kaboom")
		}
		return nil
	})
	f.evBoom = core.NewEventType("fboom")
	f.evOk = core.NewEventType("fok")
	f.evSlow = core.NewEventType("fslow")
	f.stack.Register(f.mp0, f.mp1)
	f.stack.Bind(f.evBoom, f.hBoom)
	f.stack.Bind(f.evOk, f.hOk)
	f.stack.Bind(f.evOk1, f.hOk1)
	f.stack.Bind(f.evSlow, f.hSlow)
	return f
}

// TestPanicContainedPerController: a panicking handler surfaces as a
// typed PanicError carrying its identity, and a follow-up computation
// with an overlapping footprint completes — the panic released every
// version slot it held.
func TestPanicContainedPerController(t *testing.T) {
	for _, c := range faultCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			f := newFaultFixture(c)
			err := f.stack.External(core.PathSpec(f.hBoom, f.hOk1), f.evBoom, nil)
			var pe *core.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("panicking handler returned %v, want *core.PanicError", err)
			}
			if pe.Value != "kaboom" {
				t.Errorf("PanicError.Value = %v", pe.Value)
			}
			if pe.Handler != f.hBoom.String() {
				t.Errorf("PanicError.Handler = %q, want %q", pe.Handler, f.hBoom.String())
			}
			if len(pe.Trace) == 0 {
				t.Error("PanicError.Trace empty")
			}
			// Overlapping follow-up must complete; the timeout converts a
			// wedged controller into a typed failure instead of a hang.
			follow := core.PathSpec(f.hOk, f.hOk1).WithTimeout(10 * time.Second)
			if err := f.stack.External(follow, f.evOk, nil); err != nil {
				t.Fatalf("follow-up after panic: %v", err)
			}
			if f.count.Load() < 2 {
				t.Fatalf("follow-up ran %d handler bodies, want 2", f.count.Load())
			}
			cctest.AssertInvariants(t, f.rec)
		})
	}
}

// TestEpochPinnedFramesRelease: computations begun under epoch N that die
// abnormally — one by panic, one by deadline — after epoch N+1 installs
// still release against epoch N's version slots: the old epoch drains
// with balanced accounting, the controller's retire wait observes the
// removed slot quiescent, and work on the new epoch (whose replacement
// slot starts quiescent) is admitted immediately.
func TestEpochPinnedFramesRelease(t *testing.T) {
	for _, c := range faultCases {
		c := c
		if !strings.HasPrefix(c.name, "vca-") {
			continue // only the version-table controllers are epoch-aware
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			f := newFaultFixture(c)
			f.slowBoom.Store(true)

			// A: pinned to epoch 1, wedged inside hSlow holding mp0.
			aDone := make(chan error, 1)
			go func() {
				aDone <- f.stack.External(core.PathSpec(f.hSlow), f.evSlow, nil)
			}()
			for !f.slowEntered.Load() {
				runtime.Gosched()
			}
			// B: pinned to epoch 1, claims mp0+mp1, blocks behind A on mp0
			// until its deadline fires.
			bDone := make(chan error, 1)
			go func() {
				bDone <- f.stack.External(
					core.PathSpec(f.hOk, f.hOk1).WithTimeout(300*time.Millisecond), f.evOk, nil)
			}()
			ss := f.ctrl.(interface{ SpawnStats() (uint64, uint64) })
			for {
				fast, slow := ss.SpawnStats()
				if fast+slow >= 2 {
					break // both computations claimed their epoch-1 versions
				}
				runtime.Gosched()
			}

			// Epoch 2: swap fmp1 for a v2 while A wedges and B waits.
			v2 := core.NewMicroprotocol("fmp1v2")
			v2ok1 := v2.AddHandler("ok1", func(*core.Context, core.Message) error {
				f.count.Add(1)
				return nil
			})
			if err := f.stack.Reconfigure(func(e *core.Epoch) { e.Replace("fmp1", v2) }); err != nil {
				t.Fatalf("Reconfigure: %v", err)
			}
			if got := f.stack.CurrentEpoch(); got != 2 {
				t.Fatalf("CurrentEpoch = %d, want 2", got)
			}

			// B dies by deadline, A by panic — both against epoch 1.
			var de *core.DeadlineError
			if err := <-bDone; !errors.As(err, &de) {
				t.Fatalf("blocked computation returned %v, want *core.DeadlineError", err)
			}
			f.slowRelease.Store(true)
			var pe *core.PanicError
			if err := <-aDone; !errors.As(err, &pe) {
				t.Fatalf("wedged computation returned %v, want *core.PanicError", err)
			}

			// Epoch 1 retires: every frame it admitted released its slots.
			select {
			case <-f.stack.EpochDrained(1):
			case <-time.After(10 * time.Second):
				t.Fatal("epoch 1 did not drain after its computations died")
			}
			for _, st := range f.stack.EpochStats() {
				if st.Epoch == 1 {
					if st.Begun != st.Ended || st.Active != 0 || !st.Retired {
						t.Fatalf("epoch 1 stats unbalanced: %+v", st)
					}
				}
			}
			if errs := f.stack.EpochErrs(); len(errs) != 0 {
				t.Fatalf("epoch errors: %v", errs)
			}
			if n := f.stack.DeadEpochDispatches(); n != 0 {
				t.Fatalf("%d dispatches into a retired epoch", n)
			}

			// The rebuilt spec runs on epoch 2's quiescent slots.
			follow := core.PathSpec(f.hOk, v2ok1)
			if err := f.stack.External(follow.WithTimeout(10*time.Second), f.evOk, nil); err != nil {
				t.Fatalf("follow-up on new epoch: %v", err)
			}
			if f.count.Load() < 2 {
				t.Fatalf("follow-up ran %d handler bodies, want 2", f.count.Load())
			}
			cctest.AssertInvariants(t, f.rec)
		})
	}
}

// TestDeadlineReleasesPerController: a computation bounded by
// Spec.WithTimeout that blocks behind a long-running one times out with a
// typed DeadlineError, and once the blocker finishes the controller
// admits new overlapping work — the abandoned wait left no residue.
// None is excluded: it never blocks admission, so nothing can time out.
func TestDeadlineReleasesPerController(t *testing.T) {
	for _, c := range faultCases {
		c := c
		if c.name == "none" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			f := newFaultFixture(c)
			done := make(chan error, 1)
			go func() {
				done <- f.stack.External(core.PathSpec(f.hSlow), f.evSlow, nil)
			}()
			for !f.slowEntered.Load() {
				runtime.Gosched()
			}
			err := f.stack.External(
				core.PathSpec(f.hOk, f.hOk1).WithTimeout(50*time.Millisecond), f.evOk, nil)
			var de *core.DeadlineError
			if !errors.As(err, &de) {
				t.Fatalf("blocked computation returned %v, want *core.DeadlineError", err)
			}
			f.slowRelease.Store(true)
			if err := <-done; err != nil {
				t.Fatalf("blocker failed: %v", err)
			}
			follow := core.PathSpec(f.hOk, f.hOk1).WithTimeout(10 * time.Second)
			if err := f.stack.External(follow, f.evOk, nil); err != nil {
				t.Fatalf("follow-up after timeout: %v", err)
			}
			cctest.AssertInvariants(t, f.rec)
		})
	}
}
