package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

// The benchmark's own machinery, tested without a wall-clock assertion.

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	vals := make([]int64, 200000)
	for i := range vals {
		// Log-uniform over 1 ns .. ~17 min: every octave gets samples.
		vals[i] = int64(math.Exp(rng.Float64() * math.Log(1e12)))
		h.record(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.001, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1} {
		want := float64(vals[int(math.Ceil(q*float64(len(vals))))-1])
		got := h.quantile(q)
		if err := math.Abs(got-want) / want; err > 0.01 {
			t.Errorf("q=%v: hist says %v, sorted slice says %v (%.2f%% off)", q, got, want, 100*err)
		}
	}
	if got, want := h.max.Load(), vals[len(vals)-1]; got != want {
		t.Errorf("max = %d, want %d", got, want)
	}
	var small hist
	for v := int64(0); v < 128; v++ {
		small.record(v)
	}
	if got := small.quantile(0.5); got != 63 {
		t.Errorf("values below 128 are exact: median of 0..127 = %v, want 63", got)
	}
}

func TestHistMergeAddsUp(t *testing.T) {
	var a, b hist
	a.record(1000)
	b.record(3000)
	b.record(5000)
	a.merge(&b)
	if a.count() != 3 || a.total() != 9000 || a.max.Load() != 5000 {
		t.Errorf("merged: n=%d sum=%d max=%d", a.count(), a.total(), a.max.Load())
	}
}

// fakeClock only moves when told to: sleeping advances it, and so does an
// op that takes time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	if t > c.t {
		c.t = t
	}
	c.mu.Unlock()
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
}

// A stall must be charged to every op that was due behind it. Ops are due
// every 10 ms and take 1 ms; op 2 stalls the generator for 50 ms. A recorder
// that timed ops from when they were fired would report 1 ms for all but
// one of them.
func TestOpenLoopChargesStallToOpsDueBehindIt(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{}
	inline := func(f func()) { f() } // the op holds the generator up, as a stalled system would
	w := openLoop(clk, 10, func(k int) time.Duration { return time.Duration(k) * 10 * ms }, 64, inline, func(k int) error {
		if k == 2 {
			clk.advance(50 * ms)
		} else {
			clk.advance(1 * ms)
		}
		return nil
	})
	// op:        0  1  2   3   4   5   6   7  8  9
	// due:       0 10 20  30  40  50  60  70 80 90
	// fired:     0 10 20  70  71  72  73  74 80 90
	// latency:   1  1 50  41  32  23  14   5  1  1
	if w.attempted != 10 || w.failed != 0 || w.acked() != 10 {
		t.Fatalf("attempted %d failed %d acked %d", w.attempted, w.failed, w.acked())
	}
	if got, want := time.Duration(w.lat.total()), 169*ms; got != want {
		t.Errorf("latencies sum to %v, want %v: the stall was not charged to the ops behind it", got, want)
	}
	if got, want := time.Duration(w.genLate.total()), (40+31+22+13+4)*ms; got != want {
		t.Errorf("generator lateness sums to %v, want %v", got, want)
	}
	if got, want := w.lat.quantile(0.5), float64(5*ms); math.Abs(got-want)/want > 0.01 {
		t.Errorf("median latency %v, want %v", time.Duration(got), time.Duration(want))
	}
	if got := time.Duration(w.lat.max.Load()); got != 50*ms {
		t.Errorf("max latency %v, want 50ms", got)
	}
}

// releasingClock lets held ops go when the generator waits for instant at.
type releasingClock struct {
	*fakeClock
	at      time.Duration
	release func()
}

func (c releasingClock) sleepUntil(t time.Duration) {
	if t >= c.at {
		c.release()
	}
	c.fakeClock.sleepUntil(t)
}

// An op due while the in-flight cap is reached is refused, and a refused op
// is a failed op with no latency sample.
func TestOpenLoopRefusesBeyondInFlightCap(t *testing.T) {
	const ms = time.Millisecond
	held := make(chan struct{})
	var once sync.Once
	clk := releasingClock{&fakeClock{}, 40 * ms, func() { once.Do(func() { close(held) }) }}
	w := openLoop(clk, 5, func(k int) time.Duration { return time.Duration(k) * 10 * ms }, 2,
		func(f func()) { go f() }, func(int) error {
			<-held
			return nil
		})
	// Ops 0 and 1 are held until op 4 is due, so 2 and 3 are refused; op 4
	// races the release.
	if w.attempted != 5 || w.failed < 2 || w.failed > 3 || w.acked()+w.failed != 5 {
		t.Errorf("attempted %d failed %d acked %d; want 5 attempted, 2 or 3 refused", w.attempted, w.failed, w.acked())
	}
}

func TestOpenLoopCountsErrorsAsFailed(t *testing.T) {
	clk := &fakeClock{}
	w := openLoop(clk, 4, func(k int) time.Duration { return time.Duration(k) }, 64, func(f func()) { f() }, func(k int) error {
		if k%2 == 1 {
			return context.DeadlineExceeded
		}
		return nil
	})
	if w.attempted != 4 || w.failed != 2 || w.acked() != 2 {
		t.Errorf("attempted %d failed %d acked %d", w.attempted, w.failed, w.acked())
	}
}

func TestSelfTimesOnAHandBuiltTree(t *testing.T) {
	spans := []span{
		0: {parent: -1, start: 0, end: 100}, // root
		1: {parent: 0, start: 10, end: 30},  // A
		2: {parent: 1, start: 12, end: 18},  // A's child
		3: {parent: 0, start: 20, end: 50},  // B overlaps A: together they cover 10..50
		4: {parent: 0, start: 90, end: 120}, // C sticks out: only 90..100 counts
		5: {parent: 3, start: 25, end: 0},   // still open: read as ending with the root, clipped to B
		6: {parent: 0, start: 5, end: 8},    // appended late, starts first
	}
	n := len(spans)
	self := make([]int64, n)
	selfTimes(spans, make([]int32, n), make([]int64, n), self)
	want := []int64{
		0: 100 - 40 - 10 - 3,
		1: 20 - 6,
		2: 6,
		3: 30 - 25,
		4: 30,
		5: 75,
		6: 3,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, self[i], want[i])
		}
	}
}

// bothCtrl is a controller with both optional interfaces.
type bothCtrl struct{ *cc.VCABasic }

func (bothCtrl) PrepareRetry(t core.Token) (core.Token, bool) { return nil, false }

func TestWrapperKeepsTheOptionalInterfaces(t *testing.T) {
	for _, tc := range []struct {
		name             string
		inner            core.Controller
		reconfig, restor bool
	}{
		{"vca-basic", cc.NewVCABasic(), true, false},
		{"vca-route", cc.NewVCARoute(), true, false},
		{"wait-die", cc.NewWaitDie(), false, true},
		{"serial", cc.NewSerial(), false, false},
		{"both", bothCtrl{cc.NewVCABasic()}, true, true},
	} {
		_, wantRc := tc.inner.(core.Reconfigurer)
		_, wantRs := tc.inner.(core.Restorer)
		if wantRc != tc.reconfig || wantRs != tc.restor {
			t.Fatalf("%s: the test's idea of the inner controller is stale", tc.name)
		}
		w := wrapController(tc.inner, newTracer("t", 1).sites[0])
		_, rc := w.(core.Reconfigurer)
		_, rs := w.(core.Restorer)
		if rc != wantRc || rs != wantRs {
			t.Errorf("%s: wrapper is Reconfigurer=%v Restorer=%v, inner is %v %v", tc.name, rc, rs, wantRc, wantRs)
		}
		if w.Name() != tc.inner.Name() {
			t.Errorf("%s: wrapper is named %q", tc.name, w.Name())
		}
	}
}

// twoStage builds own→hot on a fresh stack: two nested handler executions
// per computation, nine controller calls.
func twoStage(ctrl core.Controller) (run func() error) {
	stack := core.NewStack(ctrl)
	hot, own := core.NewMicroprotocol("hot"), core.NewMicroprotocol("own")
	hotEv, ownEv := core.NewEventType("hot"), core.NewEventType("own")
	stack.Register(hot, own)
	stack.Bind(hotEv, hot.AddHandler("h", func(*core.Context, core.Message) error { return nil }))
	stack.Bind(ownEv, own.AddHandler("h", func(ctx *core.Context, m core.Message) error { return ctx.Trigger(hotEv, m) }))
	spec := core.Access(own, hot)
	return func() error { return stack.External(spec, ownEv, nil) }
}

func TestWrapperAddsNoAllocations(t *testing.T) {
	bare := twoStage(cc.NewVCABasic())
	tr := newTracer("t", 1)
	tr.rawFull.Store(true) // the raw sample is bounded and grows only until full
	traced := twoStage(wrapController(cc.NewVCABasic(), tr.sites[0]))
	for i := 0; i < 100; i++ { // let pools and the record free list fill
		if err := traced(); err != nil {
			t.Fatal(err)
		}
	}
	want := testing.AllocsPerRun(2000, func() { _ = bare() })
	got := testing.AllocsPerRun(2000, func() { _ = traced() })
	if got != want {
		t.Errorf("a traced computation allocates %v times, an untraced one %v: the wrapper must add none", got, want)
	}
}

// In a computation that runs on one goroutine the spans nest properly, so
// self times partition the computation: they must sum to its duration.
func TestTracedComputationSelfTimesPartitionIt(t *testing.T) {
	tr := newTracer("t", 1)
	st := tr.sites[0]
	run := twoStage(wrapController(cc.NewVCABasic(), st))
	const comps = 50
	for i := 0; i < comps; i++ {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	var ccCalls, handlerCalls uint64
	var self int64
	for id, a := range st.agg {
		self += a.selfNs
		switch {
		case id == int(nameComputation):
		case id < int(fixedNames):
			ccCalls += a.calls
		default:
			handlerCalls += a.calls
		}
	}
	root := st.agg[nameComputation]
	if root.calls != comps || ccCalls != 9*comps || handlerCalls != 2*comps {
		t.Errorf("%d computations, %d controller calls, %d handler executions; want %d, %d, %d",
			root.calls, ccCalls, handlerCalls, comps, 9*comps, 2*comps)
	}
	if self != root.durNs {
		t.Errorf("self times sum to %d ns, the computations lasted %d ns", self, root.durNs)
	}
	if len(st.live) != 0 {
		t.Errorf("%d computations still tracked after all completed", len(st.live))
	}
	// The raw sample holds each computation as one tree.
	if len(tr.raw) != comps*12 {
		t.Fatalf("%d raw spans, want %d", len(tr.raw), comps*12)
	}
	for i, s := range tr.raw {
		if (s.Parent == -1) != (s.Name == "core.computation") || s.Parent >= i {
			t.Fatalf("raw span %d %+v: only computations are roots, and parents come first", i, s)
		}
	}
}

// One short traced run of a kv workload and a local one must be correct and
// must produce, between them, exactly the per-layer metrics BENCHMARK.json
// lists; an untraced run must produce exactly its end-to-end metrics.
func TestResultLinesMatchBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	*outDir = t.TempDir()
	seen := make(map[string]bool)
	for _, name := range []string{"kv_write_sim", "local_basic_hot"} {
		for trace := 0; trace <= 1; trace++ {
			res, err := run(name, 3, 200*time.Millisecond, trace == 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%d: failed=%d problems=%v", name, trace, res.Failed, res.Problems)
			}
			line, err := resultLine(spec, res, trace)
			if err != nil {
				t.Errorf("%s trace=%d: %v", name, trace, err)
				continue
			}
			var out struct {
				Metrics map[string]struct{ Value *float64 }
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			defs := spec.EndToEnd
			if trace == 1 {
				defs = spec.PerLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics on the result line, %d listed", name, trace, len(out.Metrics), len(defs))
			}
			for _, def := range defs {
				if m, ok := out.Metrics[def.Name]; !ok || m.Value == nil {
					t.Errorf("%s trace=%d: no value for %s", name, trace, def.Name)
				}
			}
			if trace == 1 {
				for _, m := range res.Metrics {
					seen[m.Name] = true
				}
				if m, _ := res.Metrics.get("kvstore.applies_per_op"); name == "kv_write_sim" && m.Value != 3 {
					t.Errorf("kvstore.applies_per_op = %v, want exactly 3", m.Value)
				}
			}
		}
	}
	for _, def := range spec.PerLayer {
		if !seen[def.Name] {
			t.Errorf("%s is listed but no workload's trace produced it", def.Name)
		}
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if len(listed) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", listed, workloadNames)
	}
	for i := range listed {
		if listed[i] != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, listed[i], workloadNames[i])
		}
	}
}
