package cctest_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/cctest"
	"repro/internal/core"
	"repro/internal/sched"
)

// exploreTargets lists every isolating controller with the spec flavour
// and snapshot requirement its explorations need.
type exploreTarget struct {
	name     string
	neW      func() core.Controller
	snapshot bool
}

func exploreTargets() []exploreTarget {
	return []exploreTarget{
		{name: "serial", neW: func() core.Controller { return cc.NewSerial() }},
		{name: "vca-basic", neW: func() core.Controller { return cc.NewVCABasic() }},
		{name: "ref-vca-basic", neW: func() core.Controller { return cc.NewRefVCABasic() }},
		{name: "vca-bound", neW: func() core.Controller { return cc.NewVCABound() }},
		{name: "vca-route", neW: func() core.Controller { return cc.NewVCARoute() }},
		{name: "vca-rw", neW: func() core.Controller { return cc.NewVCARW() }},
		{name: "wait-die", neW: func() core.Controller { return cc.NewWaitDie() }, snapshot: true},
	}
}

// strategies returns the three exploration strategies, fresh per use.
func strategies() map[string]func() sched.Strategy {
	return map[string]func() sched.Strategy{
		"random": func() sched.Strategy { return sched.NewRandomWalk(1) },
		"pct":    func() sched.Strategy { return sched.NewPCT(2, 3) },
		"dfs":    func() sched.Strategy { return sched.NewDFS(14) },
	}
}

// TestExploreIsolatingControllers model-checks the isolation property:
// every strategy, over every isolating controller, over every explored
// workload, must find no violation.
func TestExploreIsolatingControllers(t *testing.T) {
	for _, tgt := range exploreTargets() {
		tgt := tgt
		t.Run(tgt.name, func(t *testing.T) {
			for sname, mk := range strategies() {
				mk := mk
				t.Run(sname, func(t *testing.T) {
					runs := 60
					if sname == "dfs" {
						runs = 400
					}
					cctest.Explore(t, cctest.ExploreConfig{
						New:      tgt.neW,
						Snapshot: tgt.snapshot,
						Strategy: mk,
						Runs:     runs,
						MaxSteps: 20000,
					})
				})
			}
		})
	}
}

// TestExploreReconfigure model-checks live reconfiguration: every
// interleaving of an epoch swap (Epoch.Replace of mp0) against spawns,
// releases, and in-flight chains must preserve serializability, lose no
// update on the counter the replaced pair shares, keep lifecycle balance,
// and leave the superseded epoch drained with no errors and no dead-epoch
// dispatches. Targets are the swap-safe controllers: the four epoch-aware
// version tables (core.Reconfigurer) plus serial, which admits one
// computation at a time and so cannot race a swap.
func TestExploreReconfigure(t *testing.T) {
	for _, tgt := range exploreTargets() {
		tgt := tgt
		if _, ok := tgt.neW().(core.Reconfigurer); !ok && tgt.name != "serial" {
			continue
		}
		t.Run(tgt.name, func(t *testing.T) {
			for sname, mk := range strategies() {
				mk := mk
				t.Run(sname, func(t *testing.T) {
					runs := 60
					if sname == "dfs" {
						runs = 400
					}
					cctest.Explore(t, cctest.ExploreConfig{
						New:       tgt.neW,
						Snapshot:  tgt.snapshot,
						Strategy:  mk,
						Runs:      runs,
						MaxSteps:  20000,
						Workloads: cctest.SwapWorkloads(),
					})
				})
			}
		})
	}
}

// TestExploreNoneFindsViolation is the negative control: the Cactus
// baseline enforces nothing, so bounded DFS must find a serializability
// or lost-update violation — and its schedule token must replay to the
// identical trace, twice.
func TestExploreNoneFindsViolation(t *testing.T) {
	cfg := cctest.ExploreConfig{
		New:      func() core.Controller { return cc.NewNone() },
		Strategy: func() sched.Strategy { return sched.NewDFS(14) },
		Runs:     2000,
		MaxSteps: 20000,
	}
	var violation *sched.Violation
	var wl cctest.Workload
	for _, w := range cctest.Workloads() {
		res := cctest.ExploreWorkload(cfg, w)
		if res.Violation != nil {
			violation, wl = res.Violation, w
			break
		}
	}
	if violation == nil {
		t.Fatal("DFS exploration of cc.NewNone() found no isolation violation; the explorer lost its teeth")
	}
	t.Logf("negative control: workload %s, execution %d: %v", wl.Name, violation.Execution, violation.Err)
	if !strings.HasPrefix(violation.Schedule, "sx1:") {
		t.Fatalf("violation carries no schedule token: %q", violation.Schedule)
	}

	fp1, err1 := cctest.ReplayWorkload(cfg, wl, violation.Schedule)
	if err1 == nil {
		t.Fatalf("replay of %s did not reproduce the violation", violation.Schedule)
	}
	fp2, err2 := cctest.ReplayWorkload(cfg, wl, violation.Schedule)
	if err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("replay is not deterministic: %v vs %v", err1, err2)
	}
	if fp1 == "" || fp1 != fp2 {
		t.Fatalf("replayed traces differ:\n%s\n%s", fp1, fp2)
	}
}

// TestExploreDeep is the long-exploration job: bounded DFS with a much
// larger branching depth and run budget over every isolating controller.
// Gated behind EXPLORE_DEEP=1 (make explore DEEP=1, and the scheduled CI
// job) — it is minutes of work, not unit-test time.
func TestExploreDeep(t *testing.T) {
	if os.Getenv("EXPLORE_DEEP") == "" {
		t.Skip("set EXPLORE_DEEP=1 (or run make explore DEEP=1) for the long DFS exploration")
	}
	for _, tgt := range exploreTargets() {
		tgt := tgt
		t.Run(tgt.name, func(t *testing.T) {
			cctest.Explore(t, cctest.ExploreConfig{
				New:      tgt.neW,
				Snapshot: tgt.snapshot,
				Strategy: func() sched.Strategy { return sched.NewDFS(24) },
				Runs:     30000,
				MaxSteps: 50000,
			})
		})
	}
}

// TestExploreSerialTrace sanity-checks determinism end to end: replaying
// a passing schedule from an isolating controller reproduces its trace.
func TestExploreSerialTrace(t *testing.T) {
	cfg := cctest.ExploreConfig{
		New:      func() core.Controller { return cc.NewVCABasic() },
		Strategy: func() sched.Strategy { return sched.NewRandomWalk(7) },
		Runs:     1,
		MaxSteps: 20000,
	}
	wl := cctest.Workloads()[1]
	res := cctest.ExploreWorkload(cfg, wl)
	if res.Violation != nil {
		t.Fatalf("vca-basic violated isolation: %v", res.Violation)
	}
}
