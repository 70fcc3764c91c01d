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

func TestVCABoundName(t *testing.T) {
	if cc.NewVCABound().Name() != "vca-bound" {
		t.Fatal("name")
	}
}

func TestVCABoundRequiresBounds(t *testing.T) {
	s := core.NewStack(cc.NewVCABound())
	p := core.NewMicroprotocol("p")
	p.AddHandler("h", nop)
	s.Register(p)
	err := s.Isolated(core.Access(p), nil)
	var se *core.SpecError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want SpecError", err)
	}
}

func TestVCABoundRejectsNonPositiveBound(t *testing.T) {
	s := core.NewStack(cc.NewVCABound())
	p := core.NewMicroprotocol("p")
	p.AddHandler("h", nop)
	s.Register(p)
	err := s.Isolated(core.AccessBound(map[*core.Microprotocol]int{p: 0}), nil)
	var se *core.SpecError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want SpecError", err)
	}
}

func TestVCABoundUndeclared(t *testing.T) {
	s := core.NewStack(cc.NewVCABound())
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	hq := q.AddHandler("h", nop)
	s.Register(p, q)
	et := core.NewEventType("q")
	s.Bind(et, hq)
	err := s.External(core.AccessBound(map[*core.Microprotocol]int{p: 1}), et, nil)
	var ue *core.UndeclaredError
	if !errors.As(err, &ue) || ue.MP != "q" {
		t.Fatalf("err = %v", err)
	}
}

// TestVCABoundExhaustion: exceeding the declared least upper bound raises
// a runtime error in the thread that issued the call (paper §4).
func TestVCABoundExhaustion(t *testing.T) {
	s := core.NewStack(cc.NewVCABound())
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nop)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)

	err := s.Isolated(core.AccessBound(map[*core.Microprotocol]int{p: 2}), func(ctx *core.Context) error {
		if err := ctx.Trigger(et, nil); err != nil {
			return err
		}
		if err := ctx.Trigger(et, nil); err != nil {
			return err
		}
		err := ctx.Trigger(et, nil) // third visit: bound exhausted
		var be *core.BoundExhaustedError
		if !errors.As(err, &be) || be.Bound != 2 {
			t.Errorf("in-thread error = %v, want BoundExhaustedError{2}", err)
		}
		return err
	})
	var be *core.BoundExhaustedError
	if !errors.As(err, &be) {
		t.Fatalf("Isolated error = %v", err)
	}
}

// TestVCABoundEarlyRelease is the algorithm's selling point (§5.2): once
// k1 has visited p the declared number of times, a later computation may
// enter p while k1 is still running elsewhere.
func TestVCABoundEarlyRelease(t *testing.T) {
	s := core.NewStack(cc.NewVCABound())
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	hp := p.AddHandler("h", nop)
	holdQ := make(chan struct{})
	inQ := make(chan struct{})
	hq := q.AddHandler("h", func(*core.Context, core.Message) error {
		close(inQ)
		<-holdQ
		return nil
	})
	s.Register(p, q)
	etP, etQ := core.NewEventType("p"), core.NewEventType("q")
	s.Bind(etP, hp)
	s.Bind(etQ, hq)

	k1done := make(chan error, 1)
	go func() {
		k1done <- s.Isolated(core.AccessBound(map[*core.Microprotocol]int{p: 1, q: 1}), func(ctx *core.Context) error {
			if err := ctx.Trigger(etP, nil); err != nil { // exhausts bound on p
				return err
			}
			return ctx.Trigger(etQ, nil) // lingers in q
		})
	}()
	<-inQ

	// k2 shares only p; k1 exhausted its bound on p, so k2 proceeds now.
	k2done := make(chan error, 1)
	go func() { k2done <- s.External(core.AccessBound(map[*core.Microprotocol]int{p: 1}), etP, nil) }()
	select {
	case err := <-k2done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("k2 blocked on p although k1 exhausted its bound — no early release")
	}
	close(holdQ)
	if err := <-k1done; err != nil {
		t.Fatal(err)
	}
}

// TestVCABoundNoEarlyReleaseUnderBasic is the contrast case: the same
// scenario under VCAbasic blocks k2 until k1 completes.
func TestVCABoundNoEarlyReleaseUnderBasic(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	hp := p.AddHandler("h", nop)
	holdQ := make(chan struct{})
	inQ := make(chan struct{})
	hq := q.AddHandler("h", func(*core.Context, core.Message) error {
		close(inQ)
		<-holdQ
		return nil
	})
	s.Register(p, q)
	etP, etQ := core.NewEventType("p"), core.NewEventType("q")
	s.Bind(etP, hp)
	s.Bind(etQ, hq)

	k1done := make(chan error, 1)
	go func() {
		k1done <- s.Isolated(core.Access(p, q), func(ctx *core.Context) error {
			if err := ctx.Trigger(etP, nil); err != nil {
				return err
			}
			return ctx.Trigger(etQ, nil)
		})
	}()
	<-inQ

	k2done := make(chan error, 1)
	go func() { k2done <- s.External(core.Access(p), etP, nil) }()
	select {
	case <-k2done:
		t.Fatal("VCAbasic must hold p until k1 completes")
	case <-time.After(50 * time.Millisecond):
	}
	close(holdQ)
	if err := <-k1done; err != nil {
		t.Fatal(err)
	}
	if err := <-k2done; err != nil {
		t.Fatal(err)
	}
}

// TestVCABoundUnderdeclaredVisitsStillRelease: visiting fewer times than
// declared is fine (paper §4); rule 3 upgrades the remainder at
// completion.
func TestVCABoundUnderdeclared(t *testing.T) {
	s := core.NewStack(cc.NewVCABound())
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nop)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	spec := core.AccessBound(map[*core.Microprotocol]int{p: 10})
	// Visit once, declared ten; the next computation must not be stuck.
	for i := 0; i < 3; i++ {
		if err := s.External(spec, et, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVCABoundConcurrentVisitsWithinComputation(t *testing.T) {
	s := core.NewStack(cc.NewVCABound())
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nop)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	err := s.Isolated(core.AccessBound(map[*core.Microprotocol]int{p: 8}), func(ctx *core.Context) error {
		for i := 0; i < 8; i++ {
			if err := ctx.AsyncTrigger(et, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVCABoundHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		hammer(t, cc.NewVCABound(), 4, randScripts(rng, 12, 4, 6))
	}
}

func TestVCABoundPropertyIsolation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		hammer(t, cc.NewVCABound(), m, randScripts(rng, 2+rng.Intn(8), m, 5))
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestVCABoundOverdeclaredProperty: declaring looser bounds than actually
// used must stay correct (only less parallel).
func TestVCABoundOverdeclaredProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(3)
		p := newProto(cc.NewVCABound(), m)
		scripts := randScripts(rng, 2+rng.Intn(6), m, 4)
		done := make(chan error, len(scripts))
		for _, seq := range scripts {
			bounds := map[*core.Microprotocol]int{}
			for _, i := range seq {
				bounds[p.mps[i]] += 1 + rng.Intn(3) // over-declare
			}
			go func(seq []int, spec *core.Spec) {
				done <- p.stack.External(spec, p.events[seq[0]], &visitScript{seq: seq})
			}(seq, core.AccessBound(bounds))
		}
		for range scripts {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
		if !p.rec.Check().Serializable {
			t.Error("not serializable with over-declared bounds")
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
