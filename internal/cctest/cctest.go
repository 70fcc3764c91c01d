// Package cctest is a conformance suite for concurrency controllers: any
// core.Controller implementation claiming the isolation property can be
// validated against the same battery the built-in algorithms pass. A
// controller author runs:
//
//	func TestMyControllerConformance(t *testing.T) {
//	    cctest.Run(t, cctest.Config{
//	        New: func() core.Controller { return NewMyController() },
//	    })
//	}
//
// The battery checks, over randomized workloads (chains and async trees):
//
//   - Safety: every recorded execution is conflict-serializable (the
//     isolation property, via the trace checker), with no lost updates on
//     deliberately unsynchronized microprotocol state.
//   - Liveness: every computation completes (the suite itself would hang
//     or time out on a deadlock; waits only ever resolve because
//     controllers must be deadlock-free).
//   - Spec enforcement: calls to undeclared microprotocols fail with
//     UndeclaredError in the calling thread.
//   - Lifecycle balance: one Complete (or retry chain) per Spawn.
package cctest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Config parameterizes a conformance run.
type Config struct {
	// New creates a fresh controller (one per stack; never reused).
	New func() core.Controller
	// Seeds is the number of randomized workloads (default 12).
	Seeds int
	// SkipUndeclared skips the spec-enforcement check, for controllers
	// that deliberately do not validate M (e.g. the baselines).
	SkipUndeclared bool
	// Snapshot, when true, attaches snapshotters to every microprotocol
	// (required by rollback controllers).
	Snapshot bool
}

// Run executes the battery.
func Run(t *testing.T, cfg Config) {
	t.Helper()
	if cfg.New == nil {
		t.Fatal("cctest: Config.New required")
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 12
	}
	seeds, err := seedList(cfg.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("isolation-and-liveness", func(t *testing.T) {
		for _, seed := range seeds {
			seed := seed
			// The seed names the subtest, so a failure is re-runnable in
			// isolation: CCTEST_SEED=<n> go test -run <this test> ./...
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				runWorkload(t, cfg, seed)
			})
		}
	})
	if !cfg.SkipUndeclared {
		t.Run("undeclared-rejected", func(t *testing.T) {
			runUndeclared(t, cfg)
		})
	}
}

// seedList returns the workload seeds to run: 0..n-1, or just the value
// of CCTEST_SEED when set (reproducing one reported failure). A malformed
// CCTEST_SEED is an error, not a silent fallback to the full battery.
func seedList(n int) ([]int64, error) {
	if env := os.Getenv("CCTEST_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cctest: CCTEST_SEED=%q: %w", env, err)
		}
		return []int64{v}, nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out, nil
}

// fixture is a protocol of m counter microprotocols whose handlers chain
// through a script; counters are atomic only where intra-computation
// concurrency demands it — cross-computation safety must come from the
// controller.
type fixture struct {
	stack    *core.Stack
	rec      *trace.Recorder
	events   []*core.EventType
	counters []int
	snaps    []*snapState

	// yield runs between the read and the write of the deliberately racy
	// counter increment: runtime.Gosched under the stress battery (inviting
	// real preemption), Scheduler.Step under exploration (making the same
	// window an explicit decision point).
	yield func()
}

type snapState struct{ v int }

func (s *snapState) Snapshot() any    { return s.v }
func (s *snapState) Restore(snap any) { s.v = snap.(int) }

type script struct {
	seq []int
	pos int
}

func newFixture(cfg Config, m int) *fixture { return newFixtureSched(cfg, m, nil) }

// newFixtureSched builds the fixture; with a non-nil scheduler the stack
// is hooked into it, the controller's blocking is routed through it, and
// the racy-increment yield becomes a virtual decision point.
func newFixtureSched(cfg Config, m int, sc *sched.Scheduler) *fixture {
	f := &fixture{rec: trace.NewRecorder(), yield: runtime.Gosched}
	ctrl := cfg.New()
	opts := []core.StackOption{core.WithTracer(f.rec)}
	if sc != nil {
		if s, ok := ctrl.(sched.Schedulable); ok {
			s.SetBlocker(sc)
		}
		opts = append(opts, core.WithHook(sc))
		f.yield = sc.Step
	}
	f.stack = core.NewStack(ctrl, opts...)
	f.counters = make([]int, m)
	f.snaps = make([]*snapState, m)
	for i := 0; i < m; i++ {
		mp := core.NewMicroprotocol(fmt.Sprintf("cmp%d", i))
		if cfg.Snapshot {
			st := &snapState{}
			f.snaps[i] = st
			mp.SetSnapshotter(st)
		}
		f.stack.Register(mp)
		f.events = append(f.events, core.NewEventType(fmt.Sprintf("cev%d", i)))
		f.stack.Bind(f.events[i], mp.AddHandler("visit", f.visit(i)))
	}
	return f
}

// visit is the counter handler body for microprotocol i: the deliberately
// racy read–yield–write increment, then the script's next hop. Factored
// out so swapMP can give a replacement microprotocol the exact same
// behaviour against the same counter.
func (f *fixture) visit(i int) core.HandlerFunc {
	return func(ctx *core.Context, msg core.Message) error {
		s := msg.(*script)
		if f.snaps[i] != nil {
			f.snaps[i].v++
		} else {
			v := f.counters[i]
			f.yield()
			f.counters[i] = v + 1
		}
		if s.pos+1 < len(s.seq) {
			return ctx.Trigger(f.events[s.seq[s.pos+1]], &script{seq: s.seq, pos: s.pos + 1})
		}
		return nil
	}
}

// swapMP live-replaces counter microprotocol i with a same-behaviour
// successor while computations are running. Replace keeps the successor
// on its predecessor's version slot, so the two versions racing on the
// shared counter across the swap is exactly what the lost-update check
// exercises. It may run once per fixture (runScript retries once).
func (f *fixture) swapMP(i int) error {
	next := core.NewMicroprotocol(fmt.Sprintf("cmp%dv2", i))
	if f.snaps[i] != nil {
		next.SetSnapshotter(f.snaps[i])
	}
	next.AddHandler("visit", f.visit(i))
	return f.stack.Reconfigure(func(e *core.Epoch) {
		e.Replace(fmt.Sprintf("cmp%d", i), next)
	})
}

// runScript runs one script computation under its hand-written spec. A
// spec that raced the swap — built against one epoch, pinned to the
// next — is refused with ReconfiguredError; rebuilt, it names the
// replacement the live epoch binds, so one retry covers one swap.
func (f *fixture) runScript(seq []int) error {
	err := f.stack.External(f.spec(seq), f.events[seq[0]], &script{seq: seq})
	var re *core.ReconfiguredError
	if errors.As(err, &re) {
		err = f.stack.External(f.spec(seq), f.events[seq[0]], &script{seq: seq})
	}
	return err
}

// spec writes the script's spec out by hand against the stack's live
// bindings, so a spec built once a swap is published names the
// replacement: exactly the microprotocols the script visits, with their
// visit counts and its path as the routing graph.
func (f *fixture) spec(seq []int) *core.Spec {
	hs := make([]*core.Handler, len(seq))
	for j, i := range seq {
		hs[j] = f.stack.Bound(f.events[i])[0]
	}
	return core.PathSpec(hs...)
}

func (f *fixture) count(i int) int {
	if f.snaps[i] != nil {
		return f.snaps[i].v
	}
	return f.counters[i]
}

func runWorkload(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := 2 + rng.Intn(3)
	f := newFixture(cfg, m)
	n := 3 + rng.Intn(8)
	scripts := make([][]int, n)
	want := make([]int, m)
	for i := range scripts {
		l := 1 + rng.Intn(5)
		seq := make([]int, l)
		for j := range seq {
			seq[j] = rng.Intn(m)
		}
		scripts[i] = seq
		for _, x := range seq {
			want[x]++
		}
	}
	var wg sync.WaitGroup
	for _, seq := range scripts {
		wg.Add(1)
		go func(seq []int) {
			defer wg.Done()
			if err := f.runScript(seq); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}(seq)
	}
	wg.Wait()
	for i, w := range want {
		if got := f.count(i); got != w {
			t.Errorf("seed %d: lost update on mp%d: %d != %d", seed, i, got, w)
		}
	}
	AssertInvariants(t, f.rec)
}

// AssertInvariants checks the two controller-independent invariants every
// recorded execution must satisfy, whatever faults were injected into it:
// conflict-serializability of the recorded handler executions (the
// isolation property) and lifecycle balance (every spawned computation
// completed or aborted). The chaos harness (internal/chaos) shares it
// with this battery.
func AssertInvariants(tb testing.TB, rec *trace.Recorder) {
	tb.Helper()
	rep := rec.Check()
	if !rep.Serializable {
		tb.Errorf("execution violates the isolation property (cycle %v)", rep.Cycle)
	}
	st := rec.Stats()
	if st.Spawned != st.Completed+st.Aborted {
		tb.Errorf("lifecycle imbalance: %d spawned, %d completed, %d aborted",
			st.Spawned, st.Completed, st.Aborted)
	}
}

func runUndeclared(t *testing.T, cfg Config) {
	t.Helper()
	f := newFixture(cfg, 2)
	err := f.stack.External(f.spec([]int{0}), f.events[1], &script{seq: []int{1}})
	var ue *core.UndeclaredError
	var nr *core.NoRouteError
	if !errors.As(err, &ue) && !errors.As(err, &nr) {
		t.Errorf("undeclared call returned %v, want UndeclaredError or NoRouteError", err)
	}
}
