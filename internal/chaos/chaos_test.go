package chaos

import (
	"errors"
	"os"
	"strconv"
	"testing"

	"repro/internal/cc"
	"repro/internal/cctest"
	"repro/internal/core"
)

// seeds returns a storm battery's seeds, counted up from base: exactly
// CHAOS_SEED when set (replaying one reported failure), else CHAOS_SEEDS
// of them, else deep under CHAOS_DEEP=1 (nightly), else short under
// -short, else n.
func seeds(t *testing.T, base int64, n, short, deep int) []int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", v, err)
		}
		return []int64{seed}
	}
	if v := os.Getenv("CHAOS_SEEDS"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			t.Fatalf("CHAOS_SEEDS=%q: want a positive integer", v)
		}
		n = parsed
	} else if v := os.Getenv("CHAOS_DEEP"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			t.Fatalf("CHAOS_DEEP=%q: %v", v, err)
		}
		if on {
			n = deep
		}
	} else if testing.Short() {
		n = short
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

type variant struct {
	name string
	new  func() core.Controller
}

// variants are the isolating controllers the storm must not be able to
// wedge. None is excluded: it provides no isolation, so the
// serializability half of the verdict does not apply to it.
var variants = []variant{
	{"serial", func() core.Controller { return cc.NewSerial() }},
	{"vca-basic", func() core.Controller { return cc.NewVCABasic() }},
	{"vca-bound", func() core.Controller { return cc.NewVCABound() }},
	{"vca-route", func() core.Controller { return cc.NewVCARoute() }},
	{"vca-rw", func() core.Controller { return cc.NewVCARW() }},
	{"wait-die", func() core.Controller { return cc.NewWaitDie() }},
}

// storm runs one battery: every variant in parallel, each over its seeds.
func storm(t *testing.T, vs []variant, swaps, n, short int) {
	for _, v := range vs {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds(t, 0, n, short, 40) {
				rep, err := Run(Config{New: v.new, Seed: seed, Swaps: swaps})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				t.Log(rep)
				if err := rep.Err(); err != nil {
					t.Error(err)
				}
				cctest.AssertInvariants(t, rep.Recorder)
			}
		})
	}
}

// TestChaos is the acceptance gate for fault containment: across every
// isolating controller and a spread of seeds, injected panics, delays,
// and deadlines must leave zero wedged controllers, zero leaked version
// slots, zero lost updates, and zero isolation violations among the
// surviving computations. A failing seed is re-runnable alone via
// CHAOS_SEED=<n>.
func TestChaos(t *testing.T) { storm(t, variants, 0, 3, 1) }

// TestSwapStorm is the acceptance gate for live reconfiguration under
// fire: across every swap-safe controller and a battery of seeds,
// rotating hot swaps raced against panics, delays, and deadlines must
// commit every epoch, drain every superseded one in balance, never
// dispatch into a retired epoch, and lose zero acked writes across
// versions. The swap-safe controllers are the four VCA reconfigurers
// plus Serial (it holds no per-microprotocol state that a Replace could
// fork); WaitDie's pointer-keyed lock table is not epoch-aware.
func TestSwapStorm(t *testing.T) { storm(t, variants[:5], 8, 10, 2) }

// TestChaosInjects is a meta-test on the harness itself: with the default
// probabilities a run must actually inject faults of every class,
// otherwise TestChaos would vacuously pass.
func TestChaosInjects(t *testing.T) {
	var hookPanics, handlerPanics, cancels, panicked int
	for seed := int64(0); seed < 4; seed++ {
		rep, err := Run(Config{New: func() core.Controller { return cc.NewVCABasic() }, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		hookPanics += rep.HookPanics
		handlerPanics += rep.HandlerPanics
		cancels += rep.Cancels
		panicked += rep.Panicked
	}
	if hookPanics == 0 {
		t.Error("no hook panics injected across 4 runs")
	}
	if handlerPanics == 0 {
		t.Error("no handler panics injected across 4 runs")
	}
	if cancels == 0 {
		t.Error("no deadlines injected across 4 runs")
	}
	if panicked == 0 {
		t.Error("no computation surfaced a PanicError across 4 runs")
	}
}

// TestSwapStormInjects is a meta-test on the harness itself: across a few
// seeds the storms must actually inject hook and handler panics while
// computations still complete — otherwise TestSwapStorm would vacuously
// pass. Whether a swap lands between a spec build and its admission is a
// timing outcome a loaded host may never produce in six storms, so the
// respawn path is pinned deterministically by
// TestSwapBetweenSpecAndSpawnRespawns instead.
func TestSwapStormInjects(t *testing.T) {
	var hookPanics, handlerPanics, completed int
	for seed := int64(0); seed < 6; seed++ {
		rep, err := Run(Config{New: func() core.Controller { return cc.NewVCABasic() }, Seed: seed, Swaps: 8})
		if err != nil {
			t.Fatal(err)
		}
		if rep.FinalEpoch != uint64(1+rep.Swaps) {
			t.Fatalf("seed %d: final epoch %d, want %d", seed, rep.FinalEpoch, 1+rep.Swaps)
		}
		hookPanics += rep.HookPanics
		handlerPanics += rep.HandlerPanics
		completed += rep.Completed
	}
	if hookPanics == 0 {
		t.Error("no hook panics injected across 6 storms")
	}
	if handlerPanics == 0 {
		t.Error("no handler panics injected across 6 storms")
	}
	if completed == 0 {
		t.Error("no computation completed across 6 storms")
	}
}

// swapOnStall is an injector whose first stall commits one swap of slot
// 0: it lands exactly between fixture.run's spec build and its External,
// the window a storm only hits by timing.
type swapOnStall struct {
	*faultHook
	f       *fixture
	swapped bool
	err     error
}

func (h *swapOnStall) stall() {
	if !h.swapped {
		h.swapped = true
		var faults int
		h.err = h.f.swap(0, &faults)
	}
}

// TestSwapBetweenSpecAndSpawnRespawns: a swap that commits after a spec
// is built and before its computation pins an epoch refuses that spawn
// once; the rebuilt spec runs the computation to completion on the new
// epoch, through the slot's new occupant.
func TestSwapBetweenSpecAndSpawnRespawns(t *testing.T) {
	hook := &swapOnStall{faultHook: &faultHook{}}
	f := newFixture(Config{New: func() core.Controller { return cc.NewVCABasic() }, Swaps: 1}, hook)
	hook.f = f
	if err := f.run(plan{seq: []int{0}, panicAt: -1}); err != nil {
		t.Fatalf("computation: %v", err)
	}
	if hook.err != nil {
		t.Fatalf("swap: %v", hook.err)
	}
	if n := f.respawns.Load(); n != 1 {
		t.Fatalf("%d respawns, want 1", n)
	}
	if got := f.stack.CurrentEpoch(); got != 2 {
		t.Fatalf("epoch %d after one swap, want 2", got)
	}
	stats := f.stack.EpochStats()
	if len(stats) != 2 || stats[0].Begun != 0 || stats[1].Begun != 1 || stats[1].Ended != 1 {
		t.Fatalf("epoch stats %+v: want the one computation begun and ended on epoch 2 only", stats)
	}
	if name := f.stack.Bound(f.events[0])[0].MP().Name(); name != "chaos0v1" {
		t.Fatalf("slot 0 is bound to %s, want the swapped-in chaos0v1", name)
	}
	if n := f.slots[0].execs.Load(); n != 1 || f.slots[0].racy != 1 {
		t.Fatalf("slot 0: %d executions, counter %d; want 1 and 1", n, f.slots[0].racy)
	}
	if err := f.stack.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// bugHook panics inside Reconfigure with a value the harness did not
// inject: a real bug, which a swap must not retry.
type bugHook struct {
	*faultHook
	reconfigures int
}

func (h *bugHook) Yield(p core.YieldPoint) {
	if p == core.YieldReconfigure {
		h.reconfigures++
		panic("reconfigure bug")
	}
}

// TestSwapDoesNotRetryRealPanics: only the harness's own injected panic
// is retried; any other panic inside Reconfigure fails the swap after
// exactly one attempt and is not counted as a swap fault.
func TestSwapDoesNotRetryRealPanics(t *testing.T) {
	hook := &bugHook{faultHook: &faultHook{}}
	f := newFixture(Config{New: func() core.Controller { return cc.NewVCABasic() }}, hook)
	var faults int
	err := f.swap(0, &faults)
	var pe *core.PanicError
	if !errors.As(err, &pe) || pe.Value != "reconfigure bug" {
		t.Fatalf("swap returned %v, want the Reconfigure panic", err)
	}
	if hook.reconfigures != 1 || faults != 0 {
		t.Fatalf("%d Reconfigure attempts and %d swap faults, want 1 and 0", hook.reconfigures, faults)
	}
}
