package cc_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/trace"
)

func TestSerialAdmitsOneComputationAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 4; trial++ {
		rep := hammer(t, cc.NewSerial(), 3, randScripts(rng, 10, 3, 5))
		if !rep.Serial {
			t.Fatal("Serial controller produced a non-serial run")
		}
	}
}

func TestSerialBlocksSpawnUntilCompletion(t *testing.T) {
	s := core.NewStack(cc.NewSerial())
	hold := make(chan struct{})
	started := make(chan struct{})
	k1done := make(chan error, 1)
	go func() {
		k1done <- s.Isolated(core.Access(), func(*core.Context) error {
			close(started)
			<-hold
			return nil
		})
	}()
	<-started
	k2done := make(chan error, 1)
	go func() { k2done <- s.Isolated(core.Access(), func(*core.Context) error { return nil }) }()
	select {
	case <-k2done:
		t.Fatal("second computation admitted while first active")
	case <-time.After(50 * time.Millisecond):
	}
	close(hold)
	if err := <-k1done; err != nil {
		t.Fatal(err)
	}
	if err := <-k2done; err != nil {
		t.Fatal(err)
	}
}

// TestNoneAdmitsIsolationViolation orchestrates the paper's run r3 (§2):
// computation ka sees R before kb but S after kb — a conflict cycle. Under
// the Cactus-model None controller the schedule goes through, and the
// checker reports the violation.
func TestNoneAdmitsIsolationViolation(t *testing.T) {
	rec := trace.NewRecorder()
	s := core.NewStack(cc.NewNone(), core.WithTracer(rec))
	mpR := core.NewMicroprotocol("R")
	mpS := core.NewMicroprotocol("S")
	hR := mpR.AddHandler("r", nop)
	hS := mpS.AddHandler("s", nop)
	s.Register(mpR, mpS)
	eR, eS := core.NewEventType("eR"), core.NewEventType("eS")
	s.Bind(eR, hR)
	s.Bind(eS, hS)
	spec := core.Access(mpR, mpS)

	aR := make(chan struct{}) // ka finished R
	bS := make(chan struct{}) // kb finished S
	kaDone := make(chan error, 1)
	kbDone := make(chan error, 1)
	go func() {
		kaDone <- s.Isolated(spec, func(ctx *core.Context) error {
			if err := ctx.Trigger(eR, nil); err != nil {
				return err
			}
			close(aR)
			<-bS // let kb touch R and S first
			return ctx.Trigger(eS, nil)
		})
	}()
	go func() {
		kbDone <- s.Isolated(spec, func(ctx *core.Context) error {
			<-aR
			if err := ctx.Trigger(eR, nil); err != nil {
				return err
			}
			if err := ctx.Trigger(eS, nil); err != nil {
				return err
			}
			close(bS)
			return nil
		})
	}()
	if err := <-kaDone; err != nil {
		t.Fatal(err)
	}
	if err := <-kbDone; err != nil {
		t.Fatal(err)
	}
	rep := rec.Check()
	if rep.Serializable {
		t.Fatal("r3-style schedule must be reported as an isolation violation")
	}
	if len(rep.Cycle) == 0 {
		t.Fatal("violation report must carry a witness cycle")
	}
}

// TestNoneImposesNoBlocking: under None even fully-overlapping specs
// overlap in time.
func TestNoneImposesNoBlocking(t *testing.T) {
	s := core.NewStack(cc.NewNone())
	p := core.NewMicroprotocol("p")
	hold := make(chan struct{})
	entered := make(chan struct{}, 2)
	h := p.AddHandler("h", func(*core.Context, core.Message) error {
		entered <- struct{}{}
		<-hold
		return nil
	})
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	spec := core.Access(p)
	done := make(chan error, 2)
	go func() { done <- s.External(spec, et, nil) }()
	go func() { done <- s.External(spec, et, nil) }()
	// Both handlers get in simultaneously.
	<-entered
	<-entered
	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestControllersAcceptAnyConstruct: Serial and None run hand-written
// bound and route specs too (they simply ignore the extra structure).
func TestControllersAcceptAnyConstruct(t *testing.T) {
	for _, ctrl := range []core.Controller{cc.NewSerial(), cc.NewNone()} {
		p := newProto(ctrl, 2)
		h0, h1 := p.handlers[0], p.handlers[1]
		for kind, spec := range map[string]*core.Spec{
			"basic": core.Access(p.mps[0], p.mps[1]),
			"bound": core.AccessBound(map[*core.Microprotocol]int{p.mps[0]: 2, p.mps[1]: 1}),
			"route": core.Route(core.NewRouteGraph().Root(h0).Edge(h0, h1).Edge(h1, h0)),
		} {
			if err := p.stack.External(spec, p.events[0], &visitScript{seq: []int{0, 1, 0}}); err != nil {
				t.Fatalf("%s/%s: %v", ctrl.Name(), kind, err)
			}
		}
	}
}

// TestSerialSpawnHandoffFIFO pins the anti-barging guarantee: when a
// computation completes while another spawn is parked, the slot transfers
// to the parked spawn — a fresh spawn issued right after the Complete
// queues behind it. Without the handoff, a thread looping
// spawn→work→complete→spawn re-claims the freed slot every time and
// parked spawns starve; a starved spawn pinned to a superseded epoch
// holds that epoch's drain open forever (see live reconfiguration).
func TestSerialSpawnHandoffFIFO(t *testing.T) {
	ctrl := cc.NewSerial()
	ctx := context.Background()
	tokA, err := ctrl.Spawn(ctx, core.Access())
	if err != nil {
		t.Fatal(err)
	}
	bAdmitted := make(chan struct{})
	go func() {
		tokB, err := ctrl.Spawn(ctx, core.Access())
		if err != nil {
			t.Error(err)
			return
		}
		close(bAdmitted)
		ctrl.Complete(tokB)
	}()
	time.Sleep(50 * time.Millisecond) // let B park behind A
	ctrl.Complete(tokA)
	tokC, err := ctrl.Spawn(ctx, core.Access()) // the barger
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-bAdmitted:
	default:
		t.Fatal("a spawn issued after Complete barged ahead of the parked one")
	}
	ctrl.Complete(tokC)
}

// TestSerialCancelledWaiterReleasesSlot: a parked spawn abandoned by its
// context leaves no claim behind — the handoff skips it and the slot
// frees normally.
func TestSerialCancelledWaiterReleasesSlot(t *testing.T) {
	ctrl := cc.NewSerial()
	tokA, err := ctrl.Spawn(context.Background(), core.Access())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := ctrl.Spawn(ctx, core.Access()); err == nil {
		t.Fatal("expired spawn admitted")
	}
	ctrl.Complete(tokA)
	tokB, err := ctrl.Spawn(context.Background(), core.Access())
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Complete(tokB)
}
