package cc

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cctest"
	"repro/internal/core"
	"repro/internal/sched"
)

// These tests pit the sharded lock-free admission path (VCABasic over
// versionTable) against the retained single-mutex reference
// implementation (RefVCABasic): identical operation sequences must yield
// identical version assignments and identical admission decisions, no
// matter which mix of fast-path and slow-path claims the sharded side
// took. The driver is single-threaded and both implementations are
// deterministic under it, so any divergence is a real semantic break in
// the sharded protocol, not scheduling noise.

// shardedVersions reads (gv, lv) of mp from a sharded controller's table
// — the differential observation point mirroring RefVCABasic.versions —
// plus the versions phantom releases consumed on mp's slot.
func shardedVersions(c *VCABasic, mp *core.Microprotocol) (gv, lv, phantoms uint64) {
	c.versionTable.mu.Lock()
	defer c.versionTable.mu.Unlock()
	i, ok := c.versionTable.index[mp]
	if !ok {
		return 0, 0, 0
	}
	st := c.versionTable.states[i]
	return st.gv.Load(), st.lv.Load(), st.phantoms.Load()
}

func TestDifferentialShardedVsReference(t *testing.T) {
	const (
		seeds    = 10
		mpsCount = 6
		specPool = 8
		spawns   = 80
	)
	var totalFast, totalSlow uint64
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mps := make([]*core.Microprotocol, mpsCount)
			for i := range mps {
				mps[i] = core.NewMicroprotocol(fmt.Sprintf("mp%d", i))
			}
			// A small pool of specs, reused across spawns, so the sharded
			// side exercises its compiled-footprint cache too.
			specs := make([]*core.Spec, specPool)
			for i := range specs {
				var sub []*core.Microprotocol
				for _, mp := range mps {
					if rng.Intn(2) == 0 {
						sub = append(sub, mp)
					}
				}
				if len(sub) == 0 {
					sub = append(sub, mps[rng.Intn(len(mps))])
				}
				specs[i] = core.Access(sub...)
			}

			sh := NewVCABasic()
			ref := NewRefVCABasic()
			type liveComp struct {
				spec *core.Spec
				sTok *vcaToken
				rTok *refToken
			}
			var live []liveComp

			check := func(when string) {
				t.Helper()
				for i, mp := range mps {
					sgv, slv, _ := shardedVersions(sh, mp)
					rgv, rlv := ref.versions(mp)
					if sgv != rgv || slv != rlv {
						t.Fatalf("%s: mp%d diverged: sharded (gv=%d, lv=%d), reference (gv=%d, lv=%d)",
							when, i, sgv, slv, rgv, rlv)
					}
				}
			}

			spawned := 0
			for spawned < spawns || len(live) > 0 {
				if spawned < spawns && (len(live) == 0 || rng.Float64() < 0.6) {
					spec := specs[rng.Intn(len(specs))]
					sTok, err := sh.Spawn(nil, spec)
					if err != nil {
						t.Fatalf("sharded spawn: %v", err)
					}
					rTok, err := ref.Spawn(nil, spec)
					if err != nil {
						t.Fatalf("reference spawn: %v", err)
					}
					st, rt := sTok.(*vcaToken), rTok.(*refToken)
					for i, mp := range spec.MPs() {
						if got, want := st.nodes[i].target, rt.pv[mp]; got != want {
							t.Fatalf("spawn %d: pv of %s diverged: sharded %d, reference %d",
								spawned, mp.Name(), got, want)
						}
						// Identical admission decisions: both sides admit a
						// visit exactly when lv has reached pv−1, so equal
						// pv (checked above) and equal lv trajectories
						// (checked after every op) pin the decision point.
						if got, want := st.nodes[i].minLv, rt.pv[mp]-1; got != want {
							t.Fatalf("spawn %d: admission threshold of %s diverged: sharded waits lv>=%d, reference waits lv>=%d",
								spawned, mp.Name(), got, want)
						}
					}
					live = append(live, liveComp{spec: spec, sTok: st, rTok: rt})
					spawned++
					check(fmt.Sprintf("after spawn %d", spawned))
				} else {
					// Complete a random live computation — deliberately out
					// of spawn order, so deferred releases queue up and the
					// batched drain applies cascades.
					k := rng.Intn(len(live))
					c := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					sh.Complete(c.sTok)
					ref.Complete(c.rTok)
					check("after complete")
				}
			}

			// Everything completed: every slot must be quiescent (lv == gv)
			// on both sides.
			for i, mp := range mps {
				sgv, slv, _ := shardedVersions(sh, mp)
				if sgv != slv {
					t.Fatalf("mp%d not quiescent after drain: gv=%d, lv=%d", i, sgv, slv)
				}
			}
			fast, slow := sh.SpawnStats()
			if fast+slow != uint64(spawned) {
				t.Fatalf("spawn stats %d fast + %d slow != %d spawns", fast, slow, spawned)
			}
			totalFast += fast
			totalSlow += slow
		})
	}
	// The workload mix must have exercised both admission paths, or the
	// differential comparison proved nothing about one of them.
	if totalFast == 0 || totalSlow == 0 {
		t.Fatalf("differential workload covered only one admission path: fast=%d, slow=%d", totalFast, totalSlow)
	}
	t.Logf("admission paths covered: %d fast, %d slow", totalFast, totalSlow)
}

// TestDifferentialConcurrent runs the same randomized concurrent workload
// through both implementations (separately — each owns its state) and
// compares the terminal version vectors. With every computation
// completed, the reference's gv and lv per microprotocol depend only on
// the multiset of footprints spawned. The sharded side additionally
// spends versions on phantoms — fast-path claims that lost their prefix
// race and were retired in place (versionTable.unclaim) — so its
// terminal gv net of phantoms must equal the reference's, and every slot
// must be quiescent (gv == lv). A single worker never races itself: its
// run has no phantoms and must match the reference exactly.
func TestDifferentialConcurrent(t *testing.T) {
	const (
		perWkr   = 50
		mpsCount = 4
	)
	for _, workers := range []int{1, 8} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			mps := make([]*core.Microprotocol, mpsCount)
			for i := range mps {
				mps[i] = core.NewMicroprotocol(fmt.Sprintf("mp%d", i))
			}
			specs := make([]*core.Spec, 6)
			for i := range specs {
				var sub []*core.Microprotocol
				for _, mp := range mps {
					if rng.Intn(2) == 0 {
						sub = append(sub, mp)
					}
				}
				if len(sub) == 0 {
					sub = append(sub, mps[rng.Intn(len(mps))])
				}
				specs[i] = core.Access(sub...)
			}
			// Pre-draw each worker's spec sequence so both controllers see
			// the same multiset of footprints.
			plans := make([][]*core.Spec, workers)
			for w := range plans {
				plans[w] = make([]*core.Spec, perWkr)
				for j := range plans[w] {
					plans[w][j] = specs[rng.Intn(len(specs))]
				}
			}
			run := func(ctrl core.Controller) {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(plan []*core.Spec) {
						defer wg.Done()
						for _, spec := range plan {
							tok, err := ctrl.Spawn(nil, spec)
							if err != nil {
								panic(err)
							}
							ctrl.Complete(tok)
						}
					}(plans[w])
				}
				wg.Wait()
			}
			sh := NewVCABasic()
			ref := NewRefVCABasic()
			run(sh)
			run(ref)
			for i, mp := range mps {
				sgv, slv, ph := shardedVersions(sh, mp)
				rgv, rlv := ref.versions(mp)
				if sgv != slv || rgv != rlv || sgv-ph != rgv {
					t.Fatalf("workers %d, seed %d: mp%d terminal state diverged: sharded (gv=%d, lv=%d, phantoms=%d), reference (gv=%d, lv=%d)",
						workers, seed, i, sgv, slv, ph, rgv, rlv)
				}
				if workers == 1 && ph != 0 {
					t.Fatalf("seed %d: mp%d: a single worker produced %d phantom versions", seed, i, ph)
				}
			}
		}
	}
}

// TestExploreReachesFastPath proves the deterministic explorer still
// drives executions through the lock-free CAS fast path: across the
// cctest.Explore workload set (every execution creates a fresh
// controller, accumulated here), the controllers must report both
// fast-path and slow-path spawns — i.e. sharding did not push admission
// off the schedulable seam, and the explorer's interleavings cover both
// claim regimes.
func TestExploreReachesFastPath(t *testing.T) {
	var mu sync.Mutex
	var ctrls []*VCABasic
	cctest.Explore(t, cctest.ExploreConfig{
		New: func() core.Controller {
			c := NewVCABasic()
			mu.Lock()
			ctrls = append(ctrls, c)
			mu.Unlock()
			return c
		},
		Strategy: func() sched.Strategy { return sched.NewRandomWalk(7) },
		Runs:     60,
		MaxSteps: 20000,
	})
	var fast, slow uint64
	for _, c := range ctrls {
		f, s := c.SpawnStats()
		fast += f
		slow += s
	}
	if fast == 0 {
		t.Fatalf("explored executions never took the CAS fast path (fast=0, slow=%d)", slow)
	}
	if slow == 0 {
		t.Fatalf("explored executions never took the ordered-lock slow path (fast=%d, slow=0)", fast)
	}
	t.Logf("explored spawns: %d fast, %d slow", fast, slow)
}

// TestShardedDisjointRace hammers disjoint single-slot footprints from
// many goroutines — the pure CAS-fast-path regime — under whatever
// -race/-cpu the test run carries, and checks the per-slot version
// arithmetic came out exact.
func TestShardedDisjointRace(t *testing.T) {
	const lanes, per = 8, 200
	c := NewVCABasic()
	mps := make([]*core.Microprotocol, lanes)
	specs := make([]*core.Spec, lanes)
	for i := range mps {
		mps[i] = core.NewMicroprotocol(fmt.Sprintf("lane%d", i))
		specs[i] = core.Access(mps[i])
	}
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				tok, err := c.Spawn(nil, specs[i])
				if err != nil {
					panic(err)
				}
				st := tok.(*vcaToken)
				if err := st.fp.states[0].waitAtLeast(context.Background(), st.nodes[0].minLv); err != nil {
					panic(err)
				}
				c.Complete(tok)
			}
		}(i)
	}
	wg.Wait()
	for i, mp := range mps {
		gv, lv, _ := shardedVersions(c, mp)
		if gv != per || lv != per {
			t.Fatalf("lane %d: gv=%d, lv=%d, want %d/%d", i, gv, lv, per, per)
		}
	}
	fast, slow := c.SpawnStats()
	if fast+slow != lanes*per {
		t.Fatalf("stats: %d fast + %d slow != %d spawns", fast, slow, lanes*per)
	}
	t.Logf("disjoint hammer: %d fast, %d slow", fast, slow)
}

// TestShardedOverlapRace hammers overlapping multi-slot footprints — the
// regime where fast-path claims race slow-path ordered locking and
// abandoned claims retire as phantom releases — and checks the table
// still quiesces with exact counts.
func TestShardedOverlapRace(t *testing.T) {
	const workers, per = 8, 150
	c := NewVCABasic()
	a := core.NewMicroprotocol("a")
	b := core.NewMicroprotocol("b")
	d := core.NewMicroprotocol("d")
	specs := []*core.Spec{
		core.Access(a, b),
		core.Access(b, d),
		core.Access(a, d),
		core.Access(a, b, d),
	}
	counts := make(map[*core.Microprotocol]uint64)
	var cmu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			local := make(map[*core.Microprotocol]uint64)
			for j := 0; j < per; j++ {
				spec := specs[rng.Intn(len(specs))]
				tok, err := c.Spawn(nil, spec)
				if err != nil {
					panic(err)
				}
				for _, mp := range spec.MPs() {
					local[mp]++
				}
				c.Complete(tok)
			}
			cmu.Lock()
			for mp, n := range local {
				counts[mp] += n
			}
			cmu.Unlock()
		}(w)
	}
	wg.Wait()
	// Quiescence may lag Complete by one in-flight drain handoff on other
	// goroutines — but all goroutines have joined, and a drainer only runs
	// on a goroutine that pushed, so the queues are fully drained here.
	for _, mp := range []*core.Microprotocol{a, b, d} {
		gv, lv, ph := shardedVersions(c, mp)
		// Phantom releases from abandoned fast-path claims advance gv and
		// lv together beyond the spawn count; net of them, the count is
		// exact, and quiescence must be exact too.
		if gv != lv {
			t.Fatalf("%s not quiescent: gv=%d, lv=%d", mp.Name(), gv, lv)
		}
		if gv-ph != counts[mp] {
			t.Fatalf("%s: gv=%d with %d phantom versions, want %d claimed by spawns", mp.Name(), gv, ph, counts[mp])
		}
	}
}

// TestHotKeyWaitRace stresses the adaptive rule-2 wait: two goroutines
// run computations on {own_i, hot}, each calling own_i and then hot, so
// they alternate on hot and nearly every admission waits — yielding,
// parking, or woken by a release that hands off. The counter in hot's
// handler is a plain int: isolation alone must keep it exact. Close then
// checks that every computation that began also ended.
func TestHotKeyWaitRace(t *testing.T) {
	const workers, per = 2, 10000
	for _, c := range []interface {
		core.Controller
		SpawnStats() (fast, slow uint64)
	}{NewVCABasic(), NewVCABound(), NewVCARoute()} {
		t.Run(c.Name(), func(t *testing.T) {
			st := core.NewStack(c)
			hot := core.NewMicroprotocol("hot")
			hotEv := core.NewEventType("hot")
			n := 0
			hotH := hot.AddHandler("h", func(*core.Context, core.Message) error {
				n++
				return nil
			})
			st.Register(hot)
			st.Bind(hotEv, hotH)
			specs := make([]*core.Spec, workers)
			evs := make([]*core.EventType, workers)
			for i := range specs {
				own := core.NewMicroprotocol(fmt.Sprintf("own%d", i))
				h := own.AddHandler("h", func(ctx *core.Context, msg core.Message) error {
					return ctx.Trigger(hotEv, msg)
				})
				evs[i] = core.NewEventType(fmt.Sprintf("own%d", i))
				st.Register(own)
				st.Bind(evs[i], h)
				specs[i] = core.PathSpec(h, hotH)
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						if err := st.External(specs[i], evs[i], nil); err != nil {
							errs <- err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if n != workers*per {
				t.Fatalf("hot counter %d after %d computations: an update was lost", n, workers*per)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if _, slow := c.SpawnStats(); slow == 0 {
				t.Fatal("no spawn took the slow path: the computations never contended")
			}
		})
	}
}
