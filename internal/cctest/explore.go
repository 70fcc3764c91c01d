package cctest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// Explore mode model-checks the conformance properties instead of
// sampling them: every computation of a small fixed workload runs as a
// task of a virtual scheduler, every controller block/wake and every
// framework dispatch step is a scheduling decision, and a Strategy
// (random walk, PCT, bounded DFS) drives which interleavings are
// visited. Each visited execution is checked for serializability, lost
// updates, and lifecycle balance; deadlocks surface immediately as the
// scheduler's empty-runnable-set error rather than a test timeout.
//
// A violation carries a schedule token; ReplayWorkload re-executes that
// exact interleaving, deterministically.

// Workload is one small explored scenario: M counter microprotocols and
// one computation per script, each script a chain of visits. Swap adds
// one more task that live-replaces mp0 mid-workload (Stack.Reconfigure
// with Epoch.Replace), so every interleaving of the epoch swap against
// spawns, releases, and in-flight chains is explored alongside the
// scripts. Scripts keep their hand-written specs across the swap and
// build them from the live bindings, so one built as soon as the new
// epoch is published names the replacement — the install window
// (core.YieldInstall) is explored against both identities.
type Workload struct {
	Name    string
	M       int
	Scripts [][]int
	Swap    bool
}

// Workloads returns the explored scenario set. Deliberately tiny:
// exploration buys exhaustiveness on small instances, the randomized
// battery keeps covering big ones.
func Workloads() []Workload {
	return []Workload{
		{Name: "2comps-1mp", M: 1, Scripts: [][]int{{0}, {0}}},
		{Name: "2comps-cross", M: 2, Scripts: [][]int{{0, 1}, {1, 0}}},
		{Name: "3comps-mixed", M: 2, Scripts: [][]int{{0, 0}, {1, 0}, {1}}},
	}
}

// SwapWorkloads returns the reconfiguration scenario set: the same tiny
// script shapes, each raced against a live replacement of mp0. The
// lost-update check stays meaningful across the swap because Replace
// continues the predecessor's version slot — an interleaving where the
// old and new versions of mp0 both increment counter 0 unserialised
// would be reported, not masked by the reconfiguration.
func SwapWorkloads() []Workload {
	return []Workload{
		{Name: "swap-2comps-1mp", M: 1, Scripts: [][]int{{0}, {0}}, Swap: true},
		{Name: "swap-2comps-cross", M: 2, Scripts: [][]int{{0, 1}, {1, 0}}, Swap: true},
		{Name: "swap-3comps-mixed", M: 2, Scripts: [][]int{{0, 0}, {1, 0}, {1}}, Swap: true},
	}
}

// ExploreConfig parameterizes an exploration.
type ExploreConfig struct {
	// New creates a fresh controller per execution.
	New func() core.Controller
	// Kind is the Spec flavour to build.
	Kind Kind
	// Snapshot attaches snapshotters (rollback controllers need them).
	Snapshot bool
	// Strategy creates a fresh strategy per workload (strategies are
	// stateful across the executions of one exploration).
	Strategy func() sched.Strategy
	// Runs caps executions per workload (exhaustive strategies may stop
	// earlier).
	Runs int
	// MaxSteps bounds scheduling decisions per execution (0: default).
	MaxSteps int
	// Workloads overrides the explored scenario set (default Workloads()).
	Workloads []Workload
}

// runSpec builds one deterministically-scheduled execution of wl,
// returning the spec together with its fixture (for fingerprinting).
func runSpec(cfg ExploreConfig, wl Workload, s *sched.Scheduler) (sched.RunSpec, *fixture) {
	rcfg := Config{New: cfg.New, Kind: cfg.Kind, Snapshot: cfg.Snapshot}
	f := newFixtureSched(rcfg, wl.M, s)
	want := make([]int, wl.M)
	for _, seq := range wl.Scripts {
		for _, x := range seq {
			want[x]++
		}
	}
	var errs []error
	spec := sched.RunSpec{
		Body: func() {
			for _, seq := range wl.Scripts {
				seq := seq
				s.Go(func() {
					if err := f.runScript(cfg.Kind, seq); err != nil {
						errs = append(errs, err)
					}
				})
			}
			if wl.Swap {
				s.Go(func() {
					if err := f.swapMP(0); err != nil {
						errs = append(errs, fmt.Errorf("swap: %w", err))
					}
				})
			}
		},
		Check: func() error {
			if len(errs) > 0 {
				return fmt.Errorf("computation failed: %w", errs[0])
			}
			if rep := f.rec.Check(); !rep.Serializable {
				return fmt.Errorf("isolation property violated: no serial order (conflict cycle over computations %v)", rep.Cycle)
			}
			for i, w := range want {
				if got := f.count(i); got != w {
					return fmt.Errorf("lost update on mp%d: counter %d, want %d", i, got, w)
				}
			}
			st := f.rec.Stats()
			if st.Spawned != st.Completed+st.Aborted {
				return fmt.Errorf("lifecycle imbalance: %d spawned, %d completed, %d aborted",
					st.Spawned, st.Completed, st.Aborted)
			}
			if wl.Swap {
				return checkSwapped(f)
			}
			return nil
		},
		// No StateHash: DFS pruning needs the hash to capture the FULL
		// state (control flow included, not just counters), otherwise
		// distinct schedule prefixes are conflated and the search is cut
		// unsoundly. These workloads are small enough to explore unpruned.
	}
	return spec, f
}

// checkSwapped asserts the epoch machinery converged by the end of a
// swap workload: the stack is on epoch 2, the superseded epoch drained
// inline with the last exiting computation, retirement recorded no
// lifecycle or controller error, and nothing dispatched into the dead
// epoch.
func checkSwapped(f *fixture) error {
	if got := f.stack.CurrentEpoch(); got != 2 {
		return fmt.Errorf("epoch %d after swap workload, want 2", got)
	}
	select {
	case <-f.stack.EpochDrained(1):
	default:
		return fmt.Errorf("epoch 1 not drained although all computations completed")
	}
	if errs := f.stack.EpochErrs(); len(errs) > 0 {
		return fmt.Errorf("epoch error: %w", errs[0])
	}
	if n := f.stack.DeadEpochDispatches(); n != 0 {
		return fmt.Errorf("%d dispatches into a retired epoch", n)
	}
	return nil
}

// ExploreWorkload explores one workload under the config's strategy.
func ExploreWorkload(cfg ExploreConfig, wl Workload) sched.Result {
	return sched.Explore(sched.Options{
		Strategy: cfg.Strategy(),
		Runs:     cfg.Runs,
		MaxSteps: cfg.MaxSteps,
	}, func(s *sched.Scheduler) sched.RunSpec {
		spec, _ := runSpec(cfg, wl, s)
		return spec
	})
}

// ReplayWorkload re-executes the interleaving a schedule token records
// against a fresh build of the workload and returns the execution's
// trace fingerprint together with the reproduced violation (nil when
// the schedule passes all checks).
func ReplayWorkload(cfg ExploreConfig, wl Workload, token string) (string, error) {
	var fp string
	err := sched.Replay(token, func(s *sched.Scheduler) sched.RunSpec {
		spec, f := runSpec(cfg, wl, s)
		check := spec.Check
		spec.Check = func() error {
			fp = fingerprint(f)
			return check()
		}
		return spec
	})
	return fp, err
}

// Explore runs the whole workload set and fails the test on the first
// violation, printing its replay token.
func Explore(t *testing.T, cfg ExploreConfig) {
	t.Helper()
	wls := cfg.Workloads
	if wls == nil {
		wls = Workloads()
	}
	for _, wl := range wls {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			res := ExploreWorkload(cfg, wl)
			if v := res.Violation; v != nil {
				t.Fatalf("strategy %s, workload %s: %v", res.Strategy, wl.Name, v)
			}
			t.Logf("strategy %s: %d executions, exhausted=%v", res.Strategy, res.Executions, res.Exhausted)
		})
	}
}

// fingerprint renders the recorded trace as a compact deterministic
// string: replaying the same schedule must reproduce it byte-for-byte.
func fingerprint(f *fixture) string {
	out := ""
	for _, e := range f.rec.Entries() {
		out += fmt.Sprintf("%s c%d i%d", e.Kind, e.Comp, e.Inv)
		if e.Handler != nil {
			out += " " + e.Handler.String()
		}
		out += ";"
	}
	for i := range f.counters {
		out += fmt.Sprintf(" mp%d=%d", i, f.count(i))
	}
	return out
}
