package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
)

// nopSnapshot makes a stateless microprotocol acceptable to rollback
// controllers.
type nopSnapshot struct{}

func (nopSnapshot) Snapshot() any { return nil }
func (nopSnapshot) Restore(any)   {}

// counterState is a snapshottable counter for the E8 workload.
type counterState struct{ v int }

func (s *counterState) Snapshot() any    { return s.v }
func (s *counterState) Restore(snap any) { s.v = snap.(int) }

// RollbackWorkload is the E8 fixture comparing the paper's two algorithm
// groups: versioning (never aborts, claims everything up front) versus
// timestamp ordering with rollback/recovery (locks incrementally, aborts
// on conflict). Computations touch k of m counter microprotocols in
// random orders — crossed orders are exactly where incremental locking
// must abort and up-front versioning must serialize.
type RollbackWorkload struct {
	stack  *core.Stack
	mps    []*core.Microprotocol
	states []*counterState
	evs    []*core.EventType
	work   time.Duration
}

// rwScript chains the computation's visits.
type rwScript struct {
	seq []int
	pos int
}

// NewRollbackWorkload builds the fixture over m counters with the given
// per-handler work.
func NewRollbackWorkload(ctrl core.Controller, m int, work time.Duration) *RollbackWorkload {
	w := &RollbackWorkload{stack: core.NewStack(ctrl), work: work}
	for i := 0; i < m; i++ {
		st := &counterState{}
		mp := core.NewMicroprotocol(fmt.Sprintf("acct%d", i))
		mp.SetSnapshotter(st)
		ev := core.NewEventType(fmt.Sprintf("e%d", i))
		h := mp.AddHandler("update", func(ctx *core.Context, msg core.Message) error {
			time.Sleep(w.work) //samoa:ignore blocking — the sleep is the benchmark's simulated handler work
			st.v++
			s := msg.(*rwScript)
			if s.pos+1 < len(s.seq) {
				return ctx.Trigger(w.evs[s.seq[s.pos+1]], &rwScript{seq: s.seq, pos: s.pos + 1})
			}
			return nil
		})
		w.mps = append(w.mps, mp)
		w.states = append(w.states, st)
		w.evs = append(w.evs, ev)
		w.stack.Register(mp)
		w.stack.Bind(ev, h)
	}
	return w
}

// Run executes ops computations per worker, each touching k distinct
// counters in a random order, and returns throughput plus the exactness
// check of the final counters.
func (w *RollbackWorkload) Run(workers, ops, k int, seed int64) (float64, error) {
	want := make([]int, len(w.mps))
	scripts := make([][][]int, workers)
	rng := rand.New(rand.NewSource(seed))
	for i := range scripts {
		scripts[i] = make([][]int, ops)
		for j := range scripts[i] {
			seq := rng.Perm(len(w.mps))[:k]
			scripts[i][j] = seq
			for _, x := range seq {
				want[x]++
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, seq := range scripts[i] {
				var mps []*core.Microprotocol
				for _, x := range seq {
					mps = append(mps, w.mps[x])
				}
				if err := w.stack.External(core.Access(mps...), w.evs[seq[0]], &rwScript{seq: seq}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	for i, x := range want {
		if w.states[i].v != x {
			return 0, fmt.Errorf("lost/duplicated update on %d: %d != %d", i, w.states[i].v, x)
		}
	}
	return float64(workers*ops) / elapsed.Seconds(), nil
}

// E8Rollback compares versioning against rollback scheduling at low and
// high contention.
func E8Rollback(workers, ops int, work time.Duration) *Table {
	t := &Table{
		ID:     "E8",
		Title:  fmt.Sprintf("versioning vs rollback/recovery: %d workers × %d ops, %v/handler", workers, ops, work),
		Header: []string{"controller", "low contention (2 of 16) ops/s", "high contention (3 of 4) ops/s", "aborts (low/high)"},
	}
	variants := []struct {
		name string
		mk   func() core.Controller
	}{
		{"serial", func() core.Controller { return cc.NewSerial() }},
		{"vca-basic", func() core.Controller { return cc.NewVCABasic() }},
		{"wait-die", func() core.Controller { return cc.NewWaitDie() }},
	}
	for _, v := range variants {
		var tputs []float64
		var aborts []uint64
		for _, shape := range []struct{ m, k int }{{16, 2}, {4, 3}} {
			ctrl := v.mk()
			w := NewRollbackWorkload(ctrl, shape.m, work)
			tput, err := w.Run(workers, ops, shape.k, 99)
			if err != nil {
				panic(fmt.Sprintf("E8 %s: %v", v.name, err))
			}
			tputs = append(tputs, tput)
			if wd, ok := ctrl.(*cc.WaitDie); ok {
				aborts = append(aborts, wd.Aborts())
			} else {
				aborts = append(aborts, 0)
			}
		}
		ab := "—"
		if v.name == "wait-die" {
			ab = fmt.Sprintf("%d / %d", aborts[0], aborts[1])
		}
		t.AddRow(v.name, fmt.Sprintf("%.0f", tputs[0]), fmt.Sprintf("%.0f", tputs[1]), ab)
	}
	t.Note("expected: at low contention both groups overlap disjoint computations; at high contention")
	t.Note("wait-die pays for aborted work while the versioning group never aborts — the paper's stated")
	t.Note("reason for focusing on versioning (computations 'are never aborted', §1)")
	return t
}
