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
	kind core.SpecKind
}

// variants are the isolating controllers the storm must not be able to
// wedge. None is excluded: it provides no isolation, so the
// serializability half of the verdict does not apply to it.
var variants = []variant{
	{"serial", func() core.Controller { return cc.NewSerial() }, core.SpecBasic},
	{"vca-basic", func() core.Controller { return cc.NewVCABasic() }, core.SpecBasic},
	{"vca-bound", func() core.Controller { return cc.NewVCABound() }, core.SpecBound},
	{"vca-route", func() core.Controller { return cc.NewVCARoute() }, core.SpecRoute},
	{"vca-rw", func() core.Controller { return cc.NewVCARW() }, core.SpecBasic},
	{"tso", func() core.Controller { return cc.NewTSO() }, core.SpecBasic},
	{"wait-die", func() core.Controller { return cc.NewWaitDie() }, core.SpecBasic},
}

// storm runs one battery: every variant in parallel, each over its seeds.
func storm(t *testing.T, vs []variant, swaps, n, short int) {
	for _, v := range vs {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds(t, 0, n, short, 40) {
				rep, err := Run(Config{New: v.new, Kind: v.kind, Seed: seed, Swaps: swaps})
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
// fork); TSO's and WaitDie's pointer-keyed lock tables are not
// epoch-aware.
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
// seeds the storms must actually race swaps against live computations —
// otherwise TestSwapStorm would vacuously pass on an idle stack. Spawn
// retries after a ReconfiguredError prove a swap landed between a spec
// build and its admission.
func TestSwapStormInjects(t *testing.T) {
	var hookPanics, handlerPanics, respawns, completed int
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
		respawns += rep.Respawns
		completed += rep.Completed
	}
	if hookPanics == 0 {
		t.Error("no hook panics injected across 6 storms")
	}
	if handlerPanics == 0 {
		t.Error("no handler panics injected across 6 storms")
	}
	if respawns == 0 {
		t.Error("no spawn ever raced a swap across 6 storms — swaps are not overlapping the workload")
	}
	if completed == 0 {
		t.Error("no computation completed across 6 storms")
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
