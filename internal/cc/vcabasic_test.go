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

func TestVCABasicName(t *testing.T) {
	if cc.NewVCABasic().Name() != "vca-basic" {
		t.Fatal("name")
	}
}

func TestVCABasicUndeclared(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	hp := p.AddHandler("h", nop)
	hq := q.AddHandler("h", nop)
	s.Register(p, q)
	etP, etQ := core.NewEventType("p"), core.NewEventType("q")
	s.Bind(etP, hp)
	s.Bind(etQ, hq)

	// A computation declaring only p must not call q's handler.
	err := s.Isolated(core.Access(p), func(ctx *core.Context) error {
		if err := ctx.Trigger(etP, nil); err != nil {
			return err
		}
		err := ctx.Trigger(etQ, nil)
		var ue *core.UndeclaredError
		if !errors.As(err, &ue) {
			t.Errorf("in-thread error = %v, want UndeclaredError", err)
		}
		return err
	})
	var ue *core.UndeclaredError
	if !errors.As(err, &ue) || ue.MP != "q" {
		t.Fatalf("Isolated error = %v", err)
	}
}

func TestVCABasicDeclaredButUnusedIsFine(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nop)
	q := core.NewMicroprotocol("q") // declared, never called
	s.Register(p, q)
	et := core.NewEventType("e")
	s.Bind(et, h)
	if err := s.External(core.Access(p, q), et, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVCABasicBlocksSecondComputation reproduces the scenario of the
// Lemma 1 proof: k2, spawned after k1 with a shared microprotocol p, may
// only call handlers of p after k1 has completed.
func TestVCABasicBlocksSecondComputation(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	p := core.NewMicroprotocol("p")
	hold := make(chan struct{})
	entered1 := make(chan struct{})
	h := p.AddHandler("h", func(_ *core.Context, msg core.Message) error {
		if msg == "k1" {
			close(entered1)
			<-hold
		}
		return nil
	})
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	spec := core.Access(p)

	k1done := make(chan error, 1)
	go func() { k1done <- s.External(spec, et, "k1") }()
	<-entered1

	k2done := make(chan error, 1)
	go func() { k2done <- s.External(spec, et, "k2") }()

	select {
	case <-k2done:
		t.Fatal("k2 ran while k1 held p")
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

// TestVCABasicUnvisitedUpgradeOrder is the second case of the Lemma 1
// proof: k1 declares p but never calls it; k2 (spawned later, sharing p)
// still must wait for k1's completion before touching p — upgrades happen
// in spawn order.
func TestVCABasicUnvisitedUpgradeOrder(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nop)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)

	hold := make(chan struct{})
	spawned1 := make(chan struct{})
	k1done := make(chan error, 1)
	go func() {
		k1done <- s.Isolated(core.Access(p), func(*core.Context) error {
			close(spawned1)
			<-hold // k1 never calls p, just lingers
			return nil
		})
	}()
	<-spawned1

	k2done := make(chan error, 1)
	go func() { k2done <- s.External(core.Access(p), et, nil) }()

	select {
	case <-k2done:
		t.Fatal("k2 touched p before k1 (older version holder) completed")
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

// TestVCABasicDisjointRunConcurrently checks that computations with
// disjoint specs overlap freely.
func TestVCABasicDisjointRunConcurrently(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	holdP := make(chan struct{})
	enteredP := make(chan struct{})
	hp := p.AddHandler("h", func(*core.Context, core.Message) error {
		close(enteredP)
		<-holdP
		return nil
	})
	hq := q.AddHandler("h", nop)
	s.Register(p, q)
	etP, etQ := core.NewEventType("p"), core.NewEventType("q")
	s.Bind(etP, hp)
	s.Bind(etQ, hq)

	k1done := make(chan error, 1)
	go func() { k1done <- s.External(core.Access(p), etP, nil) }()
	<-enteredP

	// q-only computation must complete while k1 still holds p.
	if err := s.External(core.Access(q), etQ, nil); err != nil {
		t.Fatal(err)
	}
	close(holdP)
	if err := <-k1done; err != nil {
		t.Fatal(err)
	}
}

// TestVCABasicReentrant checks that nested and repeated calls within one
// computation are always admitted (the version is held for the whole
// computation).
func TestVCABasicReentrant(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	p := core.NewMicroprotocol("p")
	var depth, calls int
	et := core.NewEventType("e")
	h := p.AddHandler("h", func(ctx *core.Context, msg core.Message) error {
		calls++
		d := msg.(int)
		if d > depth {
			depth = d
		}
		if d < 3 {
			return ctx.Trigger(et, d+1)
		}
		return nil
	})
	s.Register(p)
	s.Bind(et, h)
	if err := s.External(core.Access(p), et, 1); err != nil {
		t.Fatal(err)
	}
	if depth != 3 || calls != 3 {
		t.Fatalf("depth = %d calls = %d", depth, calls)
	}
}

func TestVCABasicHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		hammer(t, cc.NewVCABasic(), 4, randScripts(rng, 12, 4, 6))
	}
}

// TestVCABasicPropertyIsolation is the property-based test: any random
// workload executed under VCAbasic is serializable with no lost updates.
func TestVCABasicPropertyIsolation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		hammer(t, cc.NewVCABasic(), m, randScripts(rng, 2+rng.Intn(8), m, 5))
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func nop(*core.Context, core.Message) error { return nil }
