package main

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

// The local_* workloads have no network: one core.Stack, nproc workers in a
// closed loop, one computation per op. They have no random input either;
// the seed only stamps the run.
const (
	localWarmupComps = 200000
	pipeStages       = 4
)

// padded keeps each worker's counter on its own cache line.
type padded struct {
	n uint64
	_ [56]byte
}

type spawnStatser interface {
	SpawnStats() (fast, slow uint64)
}

type localSys struct {
	stack *core.Stack
	stats spawnStatser
	tr    *tracer // nil when untraced
	specs []*core.Spec
	evs   []*core.EventType
	calls int  // handler executions per computation
	isHot bool // local_basic_hot

	// execs[i] counts executions of worker i's private handlers; hot is
	// the shared counter of local_basic_hot. Both are plain, non-atomic
	// increments: isolation is what makes them safe, and a lost update to
	// hot is an isolation violation the output check reports.
	execs []padded
	hot   uint64
	comps uint64 // computations run so far, warm-up included
}

// startLocal builds the stack and runs the fixed warm-up: the work setup_s
// times.
func startLocal(name string, tr *tracer, workers int) *localSys {
	s := &localSys{tr: tr, execs: make([]padded, workers)}
	var ctrl core.Controller
	switch name {
	case "local_route_pipe":
		c := cc.NewVCARoute()
		ctrl, s.stats = c, c
	case "local_basic_hot":
		c := cc.NewVCABasic()
		ctrl, s.stats = c, c
	default:
		panic("unknown local workload " + name)
	}
	if tr != nil {
		ctrl = wrapController(ctrl, tr.sites[0])
	}
	s.stack = core.NewStack(ctrl, core.WithName(name))

	if name == "local_route_pipe" {
		// Worker i owns a private pipeline: handler k triggers k+1, the
		// last one returns. Disjoint footprints: every spawn takes the
		// fast path and the cost is per-call admission.
		s.calls = pipeStages
		for i := 0; i < workers; i++ {
			count := &s.execs[i].n
			evs := make([]*core.EventType, pipeStages)
			for k := range evs {
				evs[k] = core.NewEventType(fmt.Sprintf("w%ds%d", i, k))
			}
			hs := make([]*core.Handler, pipeStages)
			for k := range hs {
				mp := core.NewMicroprotocol(fmt.Sprintf("w%ds%d", i, k))
				next := (*core.EventType)(nil)
				if k+1 < pipeStages {
					next = evs[k+1]
				}
				hs[k] = mp.AddHandler("h", func(ctx *core.Context, msg core.Message) error {
					*count++
					if next == nil {
						return nil
					}
					return ctx.Trigger(next, msg)
				})
				s.stack.Register(mp)
				s.stack.Bind(evs[k], hs[k])
			}
			g := core.NewRouteGraph().Root(hs[0])
			for k := 0; k+1 < pipeStages; k++ {
				g.Edge(hs[k], hs[k+1])
			}
			s.specs = append(s.specs, core.Route(g))
			s.evs = append(s.evs, evs[0])
		}
	} else {
		// Worker i's spec is {own_i, hot} and own_i calls hot, so every
		// spawn conflicts on hot: slow path, park/wake, release drain.
		s.calls, s.isHot = 2, true
		hot := core.NewMicroprotocol("hot")
		hotEv := core.NewEventType("hot")
		hotH := hot.AddHandler("h", func(*core.Context, core.Message) error {
			s.hot++
			return nil
		})
		s.stack.Register(hot)
		s.stack.Bind(hotEv, hotH)
		for i := 0; i < workers; i++ {
			count := &s.execs[i].n
			mp := core.NewMicroprotocol(fmt.Sprintf("own%d", i))
			h := mp.AddHandler("h", func(ctx *core.Context, msg core.Message) error {
				*count++
				return ctx.Trigger(hotEv, msg)
			})
			ev := core.NewEventType(fmt.Sprintf("own%d", i))
			s.stack.Register(mp)
			s.stack.Bind(ev, h)
			s.specs = append(s.specs, core.Access(mp, hot))
			s.evs = append(s.evs, ev)
		}
	}
	s.run(0, (localWarmupComps+workers-1)/workers)
	return s
}

func (s *localSys) run(d time.Duration, perWorker int) *window {
	w := closedLoop(len(s.specs), d, perWorker, func(i, _ int) error {
		return s.stack.External(s.specs[i], s.evs[i], nil)
	})
	s.comps += w.attempted
	return w
}

func (s *localSys) measure(d time.Duration) measured {
	if s.tr != nil {
		s.tr.reset()
	}
	var m measured
	f0, s0 := s.stats.SpawnStats()
	g := watchGoroutines()
	m.procA = readProc()
	m.w = s.run(d, 0)
	m.procB = readProc()
	m.peak = g.stop()
	f1, s1 := s.stats.SpawnStats()
	m.free = []metric{fastFrac(f1-f0, s1-s0)}
	return m
}

func (s *localSys) finish() []string {
	var bad []string
	var execs uint64
	for i := range s.execs {
		execs += s.execs[i].n
	}
	if s.isHot {
		execs += s.hot
		if s.hot != s.comps {
			bad = append(bad, fmt.Sprintf("hot counter is %d after %d computations: an update was lost, isolation was violated", s.hot, s.comps))
		}
	}
	if want := s.comps * uint64(s.calls); execs != want {
		bad = append(bad, fmt.Sprintf("%d handler executions, want %d computations × %d calls = %d", execs, s.comps, s.calls, want))
	}
	if err := s.stack.Close(); err != nil {
		bad = append(bad, fmt.Sprintf("stack close: %v", err))
	}
	return bad
}
