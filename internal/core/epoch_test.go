package core_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

// TestReconfigureReplace swaps a microprotocol for its v2 mid-lifetime:
// dispatch moves to the replacement, the old epoch retires balanced, and
// the epoch counter advances.
func TestReconfigureReplace(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	v1 := core.NewMicroprotocol("worker")
	var got []string
	h1 := v1.AddHandler("run", func(*core.Context, core.Message) error {
		got = append(got, "v1")
		return nil
	})
	s.Register(v1)
	et := core.NewEventType("e")
	s.Bind(et, h1)

	if err := s.External(core.Access(v1), et, nil); err != nil {
		t.Fatal(err)
	}

	v2 := core.NewMicroprotocol("worker")
	v2.AddHandler("run", func(*core.Context, core.Message) error {
		got = append(got, "v2")
		return nil
	})
	if err := s.Reconfigure(func(e *core.Epoch) {
		e.Replace("worker", v2)
	}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if got := s.CurrentEpoch(); got != 2 {
		t.Fatalf("CurrentEpoch = %d, want 2", got)
	}
	if mp := s.MP("worker"); mp != v2 {
		t.Fatalf("MP(worker) = %v, want the replacement", mp)
	}
	if err := s.External(core.Access(v2), et, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "v1,v2" {
		t.Fatalf("dispatch = %v", got)
	}

	// Epoch 1 had no computations in flight at the swap: it must already
	// be retired and balanced.
	select {
	case <-s.EpochDrained(1):
	case <-time.After(5 * time.Second):
		t.Fatal("epoch 1 did not retire")
	}
	stats := s.EpochStats()
	if len(stats) != 2 {
		t.Fatalf("EpochStats = %+v", stats)
	}
	if st := stats[0]; !st.Retired || st.Begun != st.Ended || st.Active != 0 {
		t.Fatalf("epoch 1 stats = %+v", st)
	}
	if st := stats[1]; st.Retired || st.Superseded {
		t.Fatalf("epoch 2 stats = %+v", st)
	}
	if errs := s.EpochErrs(); len(errs) != 0 {
		t.Fatalf("EpochErrs = %v", errs)
	}
	if n := s.DeadEpochDispatches(); n != 0 {
		t.Fatalf("DeadEpochDispatches = %d", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReconfigureOldEpochPinned is the heart of the swap protocol: a
// computation begun under epoch N keeps dispatching against epoch N's
// bindings after epoch N+1 installs, and epoch N retires only once that
// computation exits.
func TestReconfigureOldEpochPinned(t *testing.T) {
	s := core.NewStack(cc.NewNone())
	v1 := core.NewMicroprotocol("worker")
	entered := make(chan struct{})
	release := make(chan struct{})
	var v1runs, v2runs int
	h1 := v1.AddHandler("run", func(*core.Context, core.Message) error {
		v1runs++
		return nil
	})
	hold := v1.AddHandler("hold", func(ctx *core.Context, _ core.Message) error {
		close(entered)
		<-release
		return nil
	})
	s.Register(v1)
	et := core.NewEventType("e")
	etHold := core.NewEventType("hold")
	s.Bind(et, h1)
	s.Bind(etHold, hold)

	errc := make(chan error, 1)
	go func() {
		errc <- s.Isolated(core.Access(v1), func(ctx *core.Context) error {
			if err := ctx.Trigger(etHold, nil); err != nil {
				return err
			}
			// Dispatched after epoch 2 installed — must still reach v1.
			return ctx.Trigger(et, nil)
		})
	}()
	<-entered

	v2 := core.NewMicroprotocol("worker")
	v2.AddHandler("run", func(*core.Context, core.Message) error {
		v2runs++
		return nil
	})
	v2.AddHandler("hold", func(*core.Context, core.Message) error { return nil })
	if err := s.Reconfigure(func(e *core.Epoch) { e.Replace("worker", v2) }); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}

	// Old epoch must not retire while its computation is in flight.
	select {
	case <-s.EpochDrained(1):
		t.Fatal("epoch 1 retired with a pinned computation still running")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.EpochDrained(1):
	case <-time.After(5 * time.Second):
		t.Fatal("epoch 1 did not retire after its computation exited")
	}
	if v1runs != 1 || v2runs != 0 {
		t.Fatalf("v1runs=%d v2runs=%d; the pinned computation dispatched into the wrong epoch", v1runs, v2runs)
	}
	// New spawns land on epoch 2.
	if err := s.External(core.Access(v2), et, nil); err != nil {
		t.Fatal(err)
	}
	if v2runs != 1 {
		t.Fatalf("v2runs = %d after post-swap spawn", v2runs)
	}
	if n := s.DeadEpochDispatches(); n != 0 {
		t.Fatalf("DeadEpochDispatches = %d", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if errs := s.EpochErrs(); len(errs) != 0 {
		t.Fatalf("EpochErrs = %v", errs)
	}
}

// TestReconfigureAddRemove grows and shrinks the microprotocol set on a
// live stack.
func TestReconfigureAddRemove(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	a := core.NewMicroprotocol("a")
	ha := a.AddHandler("h", nopHandler)
	s.Register(a)
	etA := core.NewEventType("ea")
	s.Bind(etA, ha)
	if err := s.External(core.Access(a), etA, nil); err != nil {
		t.Fatal(err)
	}

	b := core.NewMicroprotocol("b")
	var bruns int
	hb := b.AddHandler("h", func(*core.Context, core.Message) error {
		bruns++
		return nil
	})
	etB := core.NewEventType("eb")
	if err := s.Reconfigure(func(e *core.Epoch) {
		e.Register(b)
		e.Bind(etB, hb)
		e.Remove("a")
	}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if s.MP("a") != nil || s.MP("b") != b {
		t.Fatal("registration did not move to the new epoch")
	}
	// a's bindings were stripped with it.
	if hs := s.Bound(etA); len(hs) != 0 {
		t.Fatalf("removed mp still bound: %v", hs)
	}
	if err := s.External(core.Access(b), etB, nil); err != nil {
		t.Fatal(err)
	}
	if bruns != 1 {
		t.Fatalf("bruns = %d", bruns)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if errs := s.EpochErrs(); len(errs) != 0 {
		t.Fatalf("EpochErrs = %v", errs)
	}
}

// TestReconfigureValidation: a bad edit aborts with the joined errors and
// the live configuration is untouched; a panicking edit becomes a
// *PanicError the same way.
func TestReconfigureValidation(t *testing.T) {
	s := core.NewStack(cc.NewNone())
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nopHandler)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	if err := s.External(core.Access(p), et, nil); err != nil {
		t.Fatal(err)
	}

	other := core.NewStack(cc.NewNone())
	foreign := core.NewMicroprotocol("foreign")
	foreign.AddHandler("h", nopHandler)
	other.Register(foreign)

	err := s.Reconfigure(func(e *core.Epoch) {
		e.Remove("nope")    // no such mp
		e.Register(foreign) // registered with another stack
		e.Register(p)       // duplicate name
		e.Bind(et, nil)     // nil handler
	})
	if err == nil {
		t.Fatal("invalid edit installed")
	}
	for _, want := range []string{`Remove "nope"`, "another stack", "duplicate", "nil handler"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if got := s.CurrentEpoch(); got != 1 {
		t.Fatalf("failed edit advanced the epoch to %d", got)
	}

	err = s.Reconfigure(func(e *core.Epoch) { panic("boom") })
	var pe *core.PanicError
	if !errors.As(err, &pe) || pe.Handler != "<reconfigure>" {
		t.Fatalf("panicking edit: %v", err)
	}
	if got := s.CurrentEpoch(); got != 1 {
		t.Fatalf("panicking edit advanced the epoch to %d", got)
	}
	// The stack still works.
	if err := s.External(core.Access(p), et, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDuringReconfigure pins the deterministic half of the
// close-vs-reconfigure race: a Close that begins while the edit is still
// running wins — Reconfigure observes it at the commit point, returns
// ErrClosed, and installs nothing.
func TestCloseDuringReconfigure(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nopHandler)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	if err := s.External(core.Access(p), et, nil); err != nil {
		t.Fatal(err)
	}

	editing := make(chan struct{})
	closed := make(chan struct{})
	recErr := make(chan error, 1)
	go func() {
		recErr <- s.Reconfigure(func(e *core.Epoch) {
			close(editing)
			<-closed // Close completes while we're mid-edit
			e.Rebind(et, h)
		})
	}()
	<-editing
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(closed)
	if err := <-recErr; !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Reconfigure racing Close = %v, want ErrClosed", err)
	}
	if got := s.CurrentEpoch(); got != 1 {
		t.Fatalf("losing Reconfigure still installed epoch %d", got)
	}
}

// TestCloseReconfigureRaceStress hammers the unsynchronized race: each
// round one goroutine closes while another reconfigures. Every round must
// resolve to one of the two coherent outcomes — reconfigure lost
// (ErrClosed, no install) or reconfigure won (installed, then closed) —
// with no hang and a clean Close either way.
func TestCloseReconfigureRaceStress(t *testing.T) {
	for round := 0; round < 100; round++ {
		s := core.NewStack(cc.NewVCABasic())
		p := core.NewMicroprotocol("p")
		h := p.AddHandler("h", nopHandler)
		s.Register(p)
		et := core.NewEventType("e")
		s.Bind(et, h)
		if err := s.External(core.Access(p), et, nil); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		var recErr, closeErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			recErr = s.Reconfigure(func(e *core.Epoch) { e.Rebind(et, h) })
		}()
		go func() {
			defer wg.Done()
			closeErr = s.Close()
		}()
		wg.Wait()
		if closeErr != nil {
			t.Fatalf("round %d: Close = %v", round, closeErr)
		}
		switch {
		case recErr == nil:
			if got := s.CurrentEpoch(); got != 2 {
				t.Fatalf("round %d: winning Reconfigure left epoch %d", round, got)
			}
		case errors.Is(recErr, core.ErrClosed):
			if got := s.CurrentEpoch(); got != 1 {
				t.Fatalf("round %d: losing Reconfigure left epoch %d", round, got)
			}
		default:
			t.Fatalf("round %d: Reconfigure = %v", round, recErr)
		}
		if errs := s.EpochErrs(); len(errs) != 0 {
			t.Fatalf("round %d: EpochErrs = %v", round, errs)
		}
	}
}

// TestReconfigureAfterClose: a closed stack rejects reconfiguration
// outright.
func TestReconfigureAfterClose(t *testing.T) {
	s := core.NewStack(cc.NewNone())
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nopHandler)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	if err := s.External(core.Access(p), et, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(func(e *core.Epoch) {}); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Reconfigure after Close = %v, want ErrClosed", err)
	}
}

// TestEpochDrainedWaitsForRetirement: after Reconfigure returns, the
// superseded epoch's drain channel stays open while a computation pinned
// to it runs, and closes once that computation exits.
func TestEpochDrainedWaitsForRetirement(t *testing.T) {
	s := core.NewStack(cc.NewNone())
	p := core.NewMicroprotocol("p")
	entered := make(chan struct{})
	release := make(chan struct{})
	hold := p.AddHandler("hold", func(*core.Context, core.Message) error {
		close(entered)
		<-release
		return nil
	})
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, hold)

	errc := make(chan error, 1)
	go func() { errc <- s.External(core.Access(p), et, nil) }()
	<-entered

	// The swap installs while the old epoch is still pinned.
	if err := s.Reconfigure(func(*core.Epoch) {}); err != nil {
		t.Fatal(err)
	}
	n := s.CurrentEpoch()
	if n != 2 {
		t.Fatalf("CurrentEpoch %d after one swap; want 2", n)
	}
	select {
	case <-s.EpochDrained(n - 1):
		t.Fatal("epoch 1 drained while a computation pinned to it still runs")
	default:
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.EpochDrained(n - 1):
	case <-time.After(5 * time.Second):
		t.Fatal("epoch 1 did not retire after its computation exited")
	}
	// With the stack quiescent Reconfigure retires the superseded epoch
	// before it returns.
	if err := s.Reconfigure(func(*core.Epoch) {}); err != nil {
		t.Fatal(err)
	}
	n = s.CurrentEpoch()
	select {
	case <-s.EpochDrained(n - 1):
	default:
		t.Fatalf("epoch %d not retired when Reconfigure returned on a quiescent stack", n-1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if errs := s.EpochErrs(); len(errs) != 0 {
		t.Fatalf("EpochErrs = %v", errs)
	}
}
