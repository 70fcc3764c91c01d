package cc_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// proto is a script-driven test protocol: m microprotocols, each with one
// "visit" handler doing an unsynchronized read-modify-write on a counter.
// A computation executes a script — a sequence of microprotocol indices —
// as a chain: the root triggers the first visit, each visit triggers the
// next. Counters are deliberately not atomic: if a controller fails to
// isolate computations, the race detector and the lost-update check both
// catch it.
type proto struct {
	stack    *core.Stack
	rec      *trace.Recorder
	mps      []*core.Microprotocol
	events   []*core.EventType
	handlers []*core.Handler
	counters []int
}

// visitScript is the message threaded through a chain of visits.
type visitScript struct {
	seq []int // microprotocol indices
	pos int
}

func newProto(ctrl core.Controller, m int) *proto {
	p := &proto{rec: trace.NewRecorder()}
	p.stack = core.NewStack(ctrl, core.WithTracer(p.rec))
	p.counters = make([]int, m)
	for i := 0; i < m; i++ {
		i := i
		mp := core.NewMicroprotocol(fmt.Sprintf("mp%d", i))
		h := mp.AddHandler("visit", func(ctx *core.Context, msg core.Message) error {
			s := msg.(*visitScript)
			v := p.counters[i]
			runtime.Gosched()
			p.counters[i] = v + 1
			if s.pos+1 < len(s.seq) {
				return ctx.Trigger(p.events[s.seq[s.pos+1]], &visitScript{seq: s.seq, pos: s.pos + 1})
			}
			return nil
		})
		p.mps = append(p.mps, mp)
		p.handlers = append(p.handlers, h)
		p.events = append(p.events, core.NewEventType(fmt.Sprintf("visit%d", i)))
	}
	p.stack.Register(p.mps...)
	for i, et := range p.events {
		p.stack.Bind(et, p.handlers[i])
	}
	return p
}

// run executes one computation for the script, under the script's path
// spec, and returns its error.
func (p *proto) run(seq []int) error {
	hs := make([]*core.Handler, len(seq))
	for j, i := range seq {
		hs[j] = p.handlers[i]
	}
	if len(seq) == 0 {
		return p.stack.Isolated(core.PathSpec(), nil)
	}
	return p.stack.External(core.PathSpec(hs...), p.events[seq[0]], &visitScript{seq: seq})
}

// hammer launches the scripts concurrently and verifies: no errors, no
// lost updates, and a serializable trace.
func hammer(t *testing.T, ctrl core.Controller, m int, scripts [][]int) *trace.Report {
	t.Helper()
	p := newProto(ctrl, m)
	var wg sync.WaitGroup
	errs := make([]error, len(scripts))
	for i, seq := range scripts {
		wg.Add(1)
		go func(i int, seq []int) {
			defer wg.Done()
			errs[i] = p.run(seq)
		}(i, seq)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("computation %d (%v): %v", i, scripts[i], err)
		}
	}
	want := make([]int, m)
	for _, seq := range scripts {
		for _, i := range seq {
			want[i]++
		}
	}
	for i := range want {
		if p.counters[i] != want[i] {
			t.Fatalf("lost update on mp%d: counter = %d, want %d", i, p.counters[i], want[i])
		}
	}
	rep := p.rec.Check()
	if !rep.Serializable {
		t.Fatalf("%s: execution not serializable; cycle %v", ctrl.Name(), rep.Cycle)
	}
	return rep
}

// randScripts builds n random visit scripts over m microprotocols.
func randScripts(rng *rand.Rand, n, m, maxLen int) [][]int {
	scripts := make([][]int, n)
	for i := range scripts {
		l := 1 + rng.Intn(maxLen)
		seq := make([]int, l)
		for j := range seq {
			seq[j] = rng.Intn(m)
		}
		scripts[i] = seq
	}
	return scripts
}
