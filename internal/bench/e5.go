package bench

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/trace"
)

// Pipeline is the E5 fixture: a 3-stage protocol pipeline with
// asynchronous stage handoff, where every computation visits every stage
// exactly once. It isolates the effect the paper claims for the optimised
// variants (§4–§5): VCAbound releases a stage when its declared visit
// count is exhausted, VCAroute when the stage becomes unreachable — both
// enabling pipelining that VCAbasic's hold-until-complete forbids.
//
// The ablation knobs: over-declared bounds (a bound of 2 or 8 when the
// real visit count is 1 — the bound is never exhausted, so rule 4's early
// release never fires) and an imprecise routing graph (a back edge from
// the last to the first stage keeps every stage reachable — rule 4(b)
// never fires).
type Pipeline struct {
	stack  *core.Stack
	stages []*core.Microprotocol
	hs     []*core.Handler
	evs    []*core.EventType
	spec   *core.Spec
}

// PipelineConfig selects the E5 ablation point.
type PipelineConfig struct {
	Name      string
	New       func() core.Controller
	Kind      string // "basic" | "bound" | "route"
	Bound     int    // declared visits per stage (bound kind)
	BackEdge  bool   // add emit→parse to the routing graph (route kind)
	StageWork time.Duration
}

// PipelineConfigs returns the E5 ablation grid.
func PipelineConfigs(stageWork time.Duration) []PipelineConfig {
	return []PipelineConfig{
		{Name: "serial", New: func() core.Controller { return cc.NewSerial() }, Kind: "basic", StageWork: stageWork},
		{Name: "vca-basic", New: func() core.Controller { return cc.NewVCABasic() }, Kind: "basic", StageWork: stageWork},
		{Name: "vca-bound exact (1)", New: func() core.Controller { return cc.NewVCABound() }, Kind: "bound", Bound: 1, StageWork: stageWork},
		{Name: "vca-bound loose (2x)", New: func() core.Controller { return cc.NewVCABound() }, Kind: "bound", Bound: 2, StageWork: stageWork},
		{Name: "vca-bound loose (8x)", New: func() core.Controller { return cc.NewVCABound() }, Kind: "bound", Bound: 8, StageWork: stageWork},
		{Name: "vca-route chain", New: func() core.Controller { return cc.NewVCARoute() }, Kind: "route", StageWork: stageWork},
		{Name: "vca-route back-edge", New: func() core.Controller { return cc.NewVCARoute() }, Kind: "route", BackEdge: true, StageWork: stageWork},
	}
}

// NewPipeline builds the fixture for one ablation point.
func NewPipeline(cfg PipelineConfig, opts ...core.StackOption) *Pipeline {
	p := &Pipeline{stack: core.NewStack(cfg.New(), opts...)}
	names := []string{"parse", "process", "emit"}
	for i, name := range names {
		i := i
		mp := core.NewMicroprotocol(name)
		h := mp.AddHandler("run", func(ctx *core.Context, msg core.Message) error {
			time.Sleep(cfg.StageWork) //samoa:ignore blocking — the sleep is the benchmark's simulated stage work
			if i+1 < len(names) {
				return ctx.AsyncTrigger(p.evs[i+1], msg)
			}
			return nil
		})
		p.stages = append(p.stages, mp)
		p.hs = append(p.hs, h)
		p.evs = append(p.evs, core.NewEventType(name))
	}
	p.stack.Register(p.stages...)
	for i := range p.evs {
		p.stack.Bind(p.evs[i], p.hs[i])
	}
	switch cfg.Kind {
	case "bound":
		bounds := map[*core.Microprotocol]int{}
		for _, mp := range p.stages {
			bounds[mp] = cfg.Bound
		}
		p.spec = core.AccessBound(bounds)
	case "route":
		g := core.NewRouteGraph().Root(p.hs[0]).
			Edge(p.hs[0], p.hs[1]).Edge(p.hs[1], p.hs[2])
		if cfg.BackEdge {
			g.Edge(p.hs[2], p.hs[0])
		}
		p.spec = core.Route(g)
	default:
		p.spec = core.Access(p.stages...)
	}
	return p
}

// Run pushes `items` computations through the pipeline concurrently and
// returns the wall-clock time.
func (p *Pipeline) Run(items int) (time.Duration, error) {
	done := make(chan error, items)
	start := time.Now()
	for i := 0; i < items; i++ {
		go func() { done <- p.stack.External(p.spec, p.evs[0], "item") }()
	}
	for i := 0; i < items; i++ {
		if err := <-done; err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// E5Ablation measures the pipeline under every ablation point. Besides
// the wall-clock time it reports the peak number of computations with a
// stage open at once, read off the recorded handler intervals: early
// release is exactly what lets it exceed 1, so the column shows which
// variants pipeline independently of how fast the host runs the sleeps.
func E5Ablation(items int, stageWork time.Duration) *Table {
	t := &Table{
		ID:     "E5",
		Title:  fmt.Sprintf("spec-precision ablation: %d items × 3 stages × %v", items, stageWork),
		Header: []string{"variant", "time", "vs vca-basic", "concurrent"},
	}
	ideal := time.Duration(items+2) * stageWork
	var basic time.Duration
	for _, cfg := range PipelineConfigs(stageWork) {
		rec := trace.NewRecorder()
		p := NewPipeline(cfg, core.WithTracer(rec))
		elapsed, err := p.Run(items)
		if err != nil {
			panic(fmt.Sprintf("E5 %s: %v", cfg.Name, err))
		}
		if cfg.Name == "vca-basic" {
			basic = elapsed
		}
		rel := "—"
		if basic > 0 && cfg.Name != "vca-basic" {
			rel = fmt.Sprintf("%.1fx faster", float64(basic)/float64(elapsed))
		}
		t.AddRow(cfg.Name, elapsed.Round(time.Millisecond).String(), rel, fmt.Sprint(rec.Stats().MaxConcurrency))
	}
	t.Note("pipelined lower bound ≈ %v; serial upper bound ≈ %v", ideal.Round(time.Millisecond),
		(time.Duration(items) * 3 * stageWork).Round(time.Millisecond))
	t.Note("expected: exact bounds and precise routes pipeline (concurrent > 1); over-declared bounds")
	t.Note("and back edges defeat early release and degrade to vca-basic (concurrent 1) — paper §4:")
	t.Note("accuracy of M buys parallelism")
	return t
}
