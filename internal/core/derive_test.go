package core_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

// resolve runs one empty computation under spec and returns the spec its
// pinned epoch resolved it to.
func resolve(t *testing.T, s *core.Stack, spec *core.Spec) *core.Spec {
	t.Helper()
	var out *core.Spec
	if err := s.Isolated(spec, func(ctx *core.Context) error {
		out = ctx.Computation().Spec()
		return nil
	}); err != nil {
		t.Fatalf("Isolated: %v", err)
	}
	return out
}

// chain builds p.hp →e1→ q.hq, plus r.hr bound to e2 that nothing emits;
// r.hr itself emits e1, an edge into the reachable part from outside it.
func chain() (s *core.Stack, e0, e2 *core.EventType, p, q, r *core.Microprotocol) {
	s = core.NewStack(cc.NewSerial())
	p, q, r = core.NewMicroprotocol("p"), core.NewMicroprotocol("q"), core.NewMicroprotocol("r")
	e0, e1, e2 := core.NewEventType("e0"), core.NewEventType("e1"), core.NewEventType("e2")
	s.Register(p, q, r)
	s.Bind(e0, p.AddHandler("hp", nopHandler).Emits(e1))
	s.Bind(e1, q.AddHandler("hq", nopHandler).Emits())
	s.Bind(e2, r.AddHandler("hr", nopHandler).Emits(e1))
	return s, e0, e2, p, q, r
}

// TestSpecBuilderReachability: a derived basic spec declares exactly the
// microprotocols whose handlers the root reaches.
func TestSpecBuilderReachability(t *testing.T) {
	s, e0, _, p, q, r := chain()
	if spec := resolve(t, s, core.Derive(core.SpecBasic, 0, e0)); !spec.Declares(p) || !spec.Declares(q) || spec.Declares(r) {
		t.Fatalf("basic spec MPs = %v, want [p q]", spec.MPs())
	}
}

// TestSpecBuilderBound: a derived bound spec puts the bound on every
// reached microprotocol.
func TestSpecBuilderBound(t *testing.T) {
	s, e0, _, p, q, _ := chain()
	bound := resolve(t, s, core.Derive(core.SpecBound, 7, e0))
	for _, mp := range []*core.Microprotocol{p, q} {
		if n, ok := bound.Bound(mp); !ok || n != 7 {
			t.Errorf("bound(%s) = %d, %v; want 7", mp, n, ok)
		}
	}
}

// TestSpecBuilderRouteRestrictsToReachable: the derived routing graph is
// rooted at the root's handlers and carries only the emit edges of the
// reachable part — r.hr's edge into q.hq must not leak into it.
func TestSpecBuilderRouteRestrictsToReachable(t *testing.T) {
	s, e0, _, p, q, r := chain()
	g := resolve(t, s, core.Derive(core.SpecRoute, 0, e0)).Graph()
	hp, hq, hr := p.Handler("hp"), q.Handler("hq"), r.Handler("hr")
	if !g.IsRoot(hp) || g.IsRoot(hq) || !g.Contains(hq) || g.Contains(hr) {
		t.Fatalf("route graph: root(hp)=%v root(hq)=%v contains(hq)=%v contains(hr)=%v",
			g.IsRoot(hp), g.IsRoot(hq), g.Contains(hq), g.Contains(hr))
	}
	if succ := g.Succs(hp); len(succ) != 1 || succ[0] != hq {
		t.Errorf("succs(hp) = %v, want [q.hq]", succ)
	}
	if len(g.Succs(hr)) != 0 {
		t.Error("unreachable edge leaked into the route graph")
	}
}

// TestSpecBuilderMultipleRoots: a spec derived from several roots covers
// what any of them reaches.
func TestSpecBuilderMultipleRoots(t *testing.T) {
	s, e0, e2, p, q, r := chain()
	spec := resolve(t, s, core.Derive(core.SpecBasic, 0, e0, e2))
	if !spec.Declares(p) || !spec.Declares(q) || !spec.Declares(r) {
		t.Fatalf("two roots: MPs = %v, want [p q r]", spec.MPs())
	}
}

// TestDeriveFollowsPinnedEpoch: a request resolves once per epoch (the
// same Spec for every computation of the epoch), a reconfiguration that
// leaves the request's part of the stack alone keeps that Spec, and one
// that replaces a reached microprotocol resolves to the successor.
func TestDeriveFollowsPinnedEpoch(t *testing.T) {
	s, e0, e2, p, q, _ := chain()
	req := core.Derive(core.SpecBasic, 0, e0).WithTimeout(time.Minute)
	first := resolve(t, s, req)
	if again := resolve(t, s, req); again != first {
		t.Fatal("a request must resolve once per epoch")
	}
	u := core.NewMicroprotocol("u")
	if err := s.Reconfigure(func(e *core.Epoch) {
		e.Register(u)
		e.Bind(e2, u.AddHandler("hu", nopHandler))
	}); err != nil {
		t.Fatal(err)
	}
	if got := resolve(t, s, req); got != first {
		t.Fatal("an epoch that derives the same spec must reuse the earlier resolution")
	}
	q2 := core.NewMicroprotocol("q2")
	q2.AddHandler("hq", nopHandler).Emits()
	if err := s.Reconfigure(func(e *core.Epoch) { e.Replace("q", q2) }); err != nil {
		t.Fatal(err)
	}
	spec := resolve(t, s, req)
	if !spec.Declares(p) || !spec.Declares(q2) || spec.Declares(q) {
		t.Fatalf("epoch 3 spec = %v, want [p q2]", spec.MPs())
	}
}

// TestDeriveRefusesUndeclaredHandler: a request reaching a handler that
// never declared Emits fails with a DeriveError instead of taking the
// handler for a leaf.
func TestDeriveRefusesUndeclaredHandler(t *testing.T) {
	s := core.NewStack(cc.NewSerial())
	p, q := core.NewMicroprotocol("p"), core.NewMicroprotocol("q")
	e0, e1 := core.NewEventType("e0"), core.NewEventType("e1")
	s.Register(p, q)
	s.Bind(e0, p.AddHandler("hp", nopHandler).Emits(e1))
	s.Bind(e1, q.AddHandler("hq", nopHandler))
	var de *core.DeriveError
	if err := s.External(core.Derive(core.SpecBasic, 0, e0), e0, nil); !errors.As(err, &de) || de.Handler != "q.hq" {
		t.Fatalf("derive through undeclared q.hq = %v, want DeriveError{q.hq}", err)
	}
}

// TestStaleSpecRefused: the stack refuses a hand-written spec naming a
// microprotocol outside the epoch the computation pins — before the
// controller admits it, so no version is claimed — while a computation in
// flight across the removal releases normally, its epoch drains, disjoint
// specs keep running, and a later epoch re-adding the microprotocol
// admits the spec again.
func TestStaleSpecRefused(t *testing.T) {
	ctrl := cc.NewVCABasic()
	s := core.NewStack(ctrl)
	p, q := core.NewMicroprotocol("p"), core.NewMicroprotocol("q")
	ep, eq := core.NewEventType("ep"), core.NewEventType("eq")
	hqFn, entered, release := blocking()
	hq := q.AddHandler("hq", hqFn)
	s.Register(p, q)
	s.Bind(ep, p.AddHandler("hp", nopHandler))
	s.Bind(eq, hq)

	held := make(chan error, 1)
	go func() { held <- s.External(core.Access(p, q), eq, "block") }()
	<-entered
	if err := s.Reconfigure(func(e *core.Epoch) { e.Remove("q") }); err != nil {
		t.Fatal(err)
	}
	fast, slow := ctrl.SpawnStats()
	var re *core.ReconfiguredError
	if err := s.External(core.Access(p, q), ep, nil); !errors.As(err, &re) || re.MP != "q" || re.Epoch != 2 {
		t.Fatalf("spec naming removed q = %v, want ReconfiguredError{q 2}", err)
	}
	if f, sl := ctrl.SpawnStats(); f != fast || sl != slow {
		t.Fatal("a refused spec must not reach the controller")
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("in-flight computation across the removal: %v", err)
	}
	<-s.EpochDrained(1)
	if err := s.External(core.Access(p), ep, nil); err != nil {
		t.Fatalf("disjoint spec: %v", err)
	}
	if err := s.Reconfigure(func(e *core.Epoch) {
		e.Register(q)
		e.Bind(eq, hq)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.External(core.Access(p, q), ep, nil); err != nil {
		t.Fatalf("spec naming re-added q: %v", err)
	}
	if errs := s.EpochErrs(); len(errs) != 0 {
		t.Fatalf("epoch errors: %v", errs)
	}
}

// blocking returns a handler body that parks on a "block" message until
// unblock closes, signalling entered once it holds its microprotocol.
func blocking() (fn core.HandlerFunc, entered chan struct{}, unblock chan struct{}) {
	entered, unblock = make(chan struct{}, 1), make(chan struct{})
	return func(_ *core.Context, msg core.Message) error {
		if msg == "block" {
			entered <- struct{}{}
			<-unblock
		}
		return nil
	}, entered, unblock
}

// TestRetireSkipsReAddedMP: when a microprotocol is removed and re-added
// before the removing epoch retires, retirement leaves its slot alone —
// the last old-epoch computation exits without waiting for a live
// computation of the re-adding epoch that holds the slot.
func TestRetireSkipsReAddedMP(t *testing.T) {
	s := core.NewStack(cc.NewVCABasic())
	p, q := core.NewMicroprotocol("p"), core.NewMicroprotocol("q")
	ep, eq := core.NewEventType("ep"), core.NewEventType("eq")
	hpFn, pEntered, pUnblock := blocking()
	hqFn, qEntered, qUnblock := blocking()
	hq := q.AddHandler("hq", hqFn)
	s.Register(p, q)
	s.Bind(ep, p.AddHandler("hp", hpFn))
	s.Bind(eq, hq)

	old := make(chan error, 1)
	go func() { old <- s.External(core.Access(p), ep, "block") }()
	<-pEntered // pins epoch 1
	if err := s.Reconfigure(func(e *core.Epoch) { e.Remove("q") }); err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(func(e *core.Epoch) {
		e.Register(q)
		e.Bind(eq, hq)
	}); err != nil {
		t.Fatal(err)
	}
	live := make(chan error, 1)
	go func() { live <- s.External(core.Access(q), eq, "block") }()
	<-qEntered // epoch 3 holds q's slot

	close(pUnblock) // epoch 1's last computation exits and retires it
	select {
	case err := <-old:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retiring epoch 1 waits for epoch 3's claim on the re-added q")
	}
	<-s.EpochDrained(1)
	close(qUnblock)
	if err := <-live; err != nil {
		t.Fatal(err)
	}
	if errs := s.EpochErrs(); len(errs) != 0 {
		t.Fatalf("epoch errors: %v", errs)
	}
}

// parkedInstall is a version-counting controller whose InstallEpoch parks
// until released, holding a reconfiguration inside its install window.
type parkedInstall struct {
	*cc.VCABasic
	parked, release chan struct{}
}

func (c *parkedInstall) InstallEpoch(ch core.EpochChange) {
	close(c.parked)
	<-c.release
	c.VCABasic.InstallEpoch(ch)
}

// TestInstallWindow pins the install order: the controller learns of
// epoch n+1 before any computation can pin it. While InstallEpoch is
// parked, a spec built for epoch n runs on epoch n and one naming the
// not-yet-installed successor is refused; afterwards the old spec is
// refused and the successor's spec lands on its predecessor's version
// slot, behind a computation the window admitted on the old one.
func TestInstallWindow(t *testing.T) {
	ctrl := &parkedInstall{VCABasic: cc.NewVCABasic(), parked: make(chan struct{}), release: make(chan struct{})}
	s := core.NewStack(ctrl)
	ev := core.NewEventType("hot-ev")
	visit, entered, unblock := blocking()
	hot := core.NewMicroprotocol("hot")
	s.Register(hot)
	s.Bind(ev, hot.AddHandler("visit", visit))
	oldSpec := core.Access(hot)
	if err := s.External(oldSpec, ev, nil); err != nil {
		t.Fatal(err)
	}
	next := core.NewMicroprotocol("hot@v1")
	next.AddHandler("visit", visit)
	nextSpec := core.Access(next)

	swapped := make(chan error, 1)
	go func() { swapped <- s.Reconfigure(func(e *core.Epoch) { e.Replace("hot", next) }) }()
	<-ctrl.parked

	var epoch uint64
	if err := s.Isolated(oldSpec, func(ctx *core.Context) error {
		epoch = ctx.Computation().Epoch()
		return ctx.Trigger(ev, nil)
	}); err != nil || epoch != 1 {
		t.Fatalf("old spec in the install window: err %v on epoch %d, want nil on epoch 1", err, epoch)
	}
	var re *core.ReconfiguredError
	if err := s.External(nextSpec, ev, nil); !errors.As(err, &re) || re.MP != "hot@v1" || re.Epoch != 1 {
		t.Fatalf("successor spec in the install window = %v, want ReconfiguredError{hot@v1 1}", err)
	}
	held := make(chan error, 1)
	go func() { held <- s.External(oldSpec, ev, "block") }()
	<-entered // pinned to epoch 1, holding hot's slot
	close(ctrl.release)
	if err := <-swapped; err != nil {
		t.Fatal(err)
	}

	if err := s.External(oldSpec, ev, nil); !errors.As(err, &re) || re.MP != "hot" || re.Epoch != 2 {
		t.Fatalf("old spec after the install = %v, want ReconfiguredError{hot 2}", err)
	}
	// Queued behind the held claim, the successor's computation can only
	// run out its deadline; on a fresh slot it would complete.
	var de *core.DeadlineError
	if err := s.External(nextSpec.WithTimeout(20*time.Millisecond), ev, nil); !errors.As(err, &de) || de.Stage != "enter" {
		t.Fatalf("successor spec beside the old epoch's claim = %v, want a DeadlineError at enter", err)
	}
	close(unblock)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := s.External(nextSpec, ev, nil); err != nil {
		t.Fatal(err)
	}
}
