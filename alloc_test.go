// Allocation-regression tests for the hot paths overhauled by the
// sealed-dispatch / dense-version-table work: the budgets asserted here
// are the contract the benchmarks in bench_test.go report against. If a
// change raises one of these averages, the fast path regressed — fix the
// path, don't raise the budget.
package repro

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/cc"
	"repro/internal/core"
)

// TestTriggerSealedAllocBudget asserts the sealed synchronous Trigger
// fast path is allocation-free: binding lookup reads the published
// snapshot, the handler frame comes from a pool, and vca-basic admission
// is a lock-free atomic check. The budget is 0; the < 0.5 tolerance only
// absorbs a GC emptying the frame pool mid-run.
//
// Since the deterministic-scheduler work these budgets also pin the
// hooks-compiled-in-but-inactive path: every yield point in core and
// every blocking point in cc carries a nil-hook / default-blocker
// branch, and none of them may cost an allocation.
func TestTriggerSealedAllocBudget(t *testing.T) {
	for _, name := range []string{"none", "serial", "vca-basic", "vca-bound"} {
		t.Run(name, func(t *testing.T) {
			v, ok := bench.VariantByName(name)
			if !ok {
				t.Fatal("unknown variant")
			}
			st := core.NewStack(v.New())
			mp := core.NewMicroprotocol("mp")
			h := mp.AddHandler("h", func(*core.Context, core.Message) error { return nil })
			st.Register(mp)
			et := core.NewEventType("e")
			st.Bind(et, h)
			spec := core.Access(mp)
			if name == "vca-bound" {
				// A huge bound keeps Request from exhausting the visit
				// budget across the measured iterations.
				spec = core.AccessBound(map[*core.Microprotocol]int{mp: 1 << 20})
			}
			err := st.Isolated(spec, func(ctx *core.Context) error {
				avg := testing.AllocsPerRun(200, func() {
					if err := ctx.Trigger(et, nil); err != nil {
						t.Error(err)
					}
				})
				if avg >= 0.5 {
					t.Errorf("sealed Trigger: %.2f allocs/op, budget 0", avg)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpawnCompleteAllocBudget asserts an Access-spec computation's
// controller lifecycle (Spawn + RootReturned + Complete) under vca-basic
// stays at its compiled-footprint budget: one token and one claim-node
// slice — 2 allocations, independent of how many microprotocols the spec
// declares. The sharded-admission work (DESIGN.md §11) kept this budget
// unchanged: the CAS fast path allocates nothing beyond the token, the
// release nodes are embedded in the token's slice, and the group-commit
// stack links through them in place. Sequential spawn/complete is always
// quiescent, so this loop must take the fast path every iteration — the
// SpawnStats check below pins that, so a regression that silently
// diverts the budget measurement onto the slow path cannot pass.
func TestSpawnCompleteAllocBudget(t *testing.T) {
	ctrl := cc.NewVCABasic()
	mps := make([]*core.Microprotocol, 4)
	for i := range mps {
		mps[i] = core.NewMicroprotocol(string(rune('a' + i)))
	}
	spec := core.Access(mps...)
	avg := testing.AllocsPerRun(200, func() {
		tok, err := ctrl.Spawn(context.Background(), spec)
		if err != nil {
			t.Error(err)
		}
		ctrl.RootReturned(tok)
		ctrl.Complete(tok)
	})
	if avg > 2 {
		t.Errorf("Access-spec Spawn+Complete: %.2f allocs/op, budget 2", avg)
	}
	if fast, slow := ctrl.SpawnStats(); slow != 0 || fast == 0 {
		t.Errorf("budget loop took the slow path (%d fast, %d slow); the measurement no longer covers the CAS fast path", fast, slow)
	}
}

// TestKernelOverrideAllocBudgets pins the controller lifecycle (Spawn +
// RootReturned + Complete) of the version-counting kernel's other users:
// VCABound adds the visit-budget slice to VCABasic's token and claim
// nodes (3), and VCARoute its rule-4(b) bookkeeping — one flag array
// backing the released/removed/seen slices, and the activity counts (4)
// — which is the per-spawn cost of every local_route_pipe computation.
// Both loops are sequential, hence quiescent, hence on the CAS fast path,
// like the VCABasic budget above.
func TestKernelOverrideAllocBudgets(t *testing.T) {
	mps := make([]*core.Microprotocol, 4)
	hs := make([]*core.Handler, len(mps))
	bounds := map[*core.Microprotocol]int{}
	g := core.NewRouteGraph()
	for i := range mps {
		mps[i] = core.NewMicroprotocol(string(rune('a' + i)))
		hs[i] = mps[i].AddHandler("h", func(*core.Context, core.Message) error { return nil })
		bounds[mps[i]] = i + 1
		if i == 0 {
			g.Root(hs[0])
		} else {
			g.Edge(hs[i-1], hs[i])
		}
	}
	for _, tc := range []struct {
		name string
		ctrl interface {
			core.Controller
			SpawnStats() (fast, slow uint64)
		}
		spec   *core.Spec
		budget float64
	}{
		{"vca-bound", cc.NewVCABound(), core.AccessBound(bounds), 3},
		{"vca-route", cc.NewVCARoute(), core.Route(g), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(200, func() {
				tok, err := tc.ctrl.Spawn(context.Background(), tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				tc.ctrl.RootReturned(tok)
				tc.ctrl.Complete(tok)
			})
			if avg > tc.budget {
				t.Errorf("Spawn+Complete: %.2f allocs/op, budget %.0f", avg, tc.budget)
			}
			if fast, slow := tc.ctrl.SpawnStats(); slow != 0 || fast == 0 {
				t.Errorf("budget loop took the slow path (%d fast, %d slow)", fast, slow)
			}
		})
	}
}

// TestBatchedReleaseAllocBudget guards the batched deferred-release path:
// three single-slot computations completed out of spawn order force the
// later releases through the pending queue (deferred until due, then
// cascaded by one group-commit drain). The budget is exactly the spawn
// cost — 3 tokens × 2 allocations; queueing, draining, and cascading must
// contribute zero, because release nodes are token-embedded and both the
// pending queue and the release stack reuse their storage.
func TestBatchedReleaseAllocBudget(t *testing.T) {
	ctrl := cc.NewVCABasic()
	mp := core.NewMicroprotocol("m")
	spec := core.Access(mp)
	avg := testing.AllocsPerRun(200, func() {
		t1, err := ctrl.Spawn(context.Background(), spec)
		if err != nil {
			t.Error(err)
		}
		t2, err := ctrl.Spawn(context.Background(), spec)
		if err != nil {
			t.Error(err)
		}
		t3, err := ctrl.Spawn(context.Background(), spec)
		if err != nil {
			t.Error(err)
		}
		// Reverse order: t3's and t2's releases sit in the pending queue
		// until t1's release makes them due and the drain cascades.
		ctrl.Complete(t3)
		ctrl.Complete(t2)
		ctrl.Complete(t1)
	})
	if avg > 6 {
		t.Errorf("3× Spawn + out-of-order Complete: %.2f allocs/op, budget 6 (releases must be allocation-free)", avg)
	}
}

// TestDeriveIsolatedAllocBudget asserts that a Derive request costs a
// warm epoch nothing: once the epoch has resolved it, a computation
// through Stack.Isolated allocates exactly what the same computation
// under the equivalent hand-written Access spec does.
func TestDeriveIsolatedAllocBudget(t *testing.T) {
	st := core.NewStack(cc.NewVCABasic())
	mp, next := core.NewMicroprotocol("mp"), core.NewMicroprotocol("next")
	e0, e1 := core.NewEventType("e0"), core.NewEventType("e1")
	st.Register(mp, next)
	st.Bind(e0, mp.AddHandler("h", func(*core.Context, core.Message) error { return nil }).Emits(e1))
	st.Bind(e1, next.AddHandler("h", func(*core.Context, core.Message) error { return nil }).Emits())
	root := func(*core.Context) error { return nil }
	allocs := func(spec *core.Spec) float64 {
		if err := st.Isolated(spec, root); err != nil { // warm: seal, resolve, compile
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if err := st.Isolated(spec, root); err != nil {
				t.Error(err)
			}
		})
	}
	access := allocs(core.Access(mp, next))
	if derived := allocs(core.Derive(core.SpecBasic, 0, e0)); derived > access {
		t.Errorf("Derive computation: %.2f allocs/op, Access: %.2f; a warm epoch must resolve for free", derived, access)
	}
}
