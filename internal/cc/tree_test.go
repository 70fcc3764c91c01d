package cc_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/trace"
)

// treeNode is a branching computation script: visit mp, then trigger each
// child (synchronously or asynchronously). Trees with async fan-out are
// what distinguish computations ("possibly multi-threaded transactions")
// from plain call chains.
type treeNode struct {
	mp       int
	children []*treeNode
	async    []bool // parallel to children
}

// randTree builds a random script tree over m microprotocols.
func randTree(rng *rand.Rand, m, maxNodes int) *treeNode {
	root := &treeNode{mp: rng.Intn(m)}
	nodes := []*treeNode{root}
	for len(nodes) < maxNodes && rng.Intn(4) != 0 {
		parent := nodes[rng.Intn(len(nodes))]
		child := &treeNode{mp: rng.Intn(m)}
		parent.children = append(parent.children, child)
		parent.async = append(parent.async, rng.Intn(2) == 0)
		nodes = append(nodes, child)
	}
	return root
}

// preorder appends the tree's microprotocols to out, parents before
// children.
func (n *treeNode) preorder(out []int) []int {
	out = append(out, n.mp)
	for _, c := range n.children {
		out = c.preorder(out)
	}
	return out
}

// treeProto hosts the tree workloads. Counters are atomic because a tree
// may fan out asynchronously to the same microprotocol *within one
// computation*, and the isolation property only orders computations
// against each other — intra-computation thread consistency is the
// programmer's responsibility (the paper's Fig. 1 *assumes* handlers R
// and S are atomic). Isolation itself is asserted via the trace checker.
type treeProto struct {
	stack    *core.Stack
	rec      *trace.Recorder
	mps      []*core.Microprotocol
	handlers []*core.Handler
	events   []*core.EventType
	counters []atomic.Int64
}

func newTreeProto(ctrl core.Controller, m int) *treeProto {
	p := &treeProto{rec: trace.NewRecorder()}
	p.stack = core.NewStack(ctrl, core.WithTracer(p.rec))
	p.counters = make([]atomic.Int64, m)
	for i := 0; i < m; i++ {
		i := i
		mp := core.NewMicroprotocol(fmt.Sprintf("t%d", i))
		h := mp.AddHandler("visit", func(ctx *core.Context, msg core.Message) error {
			node := msg.(*treeNode)
			runtime.Gosched()
			p.counters[i].Add(1)
			for ci, child := range node.children {
				ev := p.events[child.mp]
				var err error
				if node.async[ci] {
					err = ctx.AsyncTrigger(ev, child)
				} else {
					err = ctx.Trigger(ev, child)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		p.mps = append(p.mps, mp)
		p.handlers = append(p.handlers, h)
		p.events = append(p.events, core.NewEventType(fmt.Sprintf("te%d", i)))
	}
	p.stack.Register(p.mps...)
	for i := range p.events {
		p.stack.Bind(p.events[i], p.handlers[i])
	}
	return p
}

// run executes the tree as one computation. Its spec is the path of the
// tree's preorder walk: M and the visit counts are exact, and since every
// node comes after its parent, the chain routes every call the tree makes.
func (p *treeProto) run(root *treeNode) error {
	var hs []*core.Handler
	for _, i := range root.preorder(nil) {
		hs = append(hs, p.handlers[i])
	}
	return p.stack.External(core.PathSpec(hs...), p.events[root.mp], root)
}

// runTreeWorkload launches the trees concurrently and verifies counters
// and serializability.
func runTreeWorkload(t *testing.T, ctrl core.Controller, m int, trees []*treeNode) {
	t.Helper()
	p := newTreeProto(ctrl, m)
	var wg sync.WaitGroup
	for _, tr := range trees {
		wg.Add(1)
		go func(tr *treeNode) {
			defer wg.Done()
			if err := p.run(tr); err != nil {
				t.Errorf("%s: %v", ctrl.Name(), err)
			}
		}(tr)
	}
	wg.Wait()
	want := make([]int, m)
	for _, tr := range trees {
		for _, i := range tr.preorder(nil) {
			want[i]++
		}
	}
	for i := range want {
		if got := p.counters[i].Load(); got != int64(want[i]) {
			t.Errorf("%s: counter[%d] = %d, want %d", ctrl.Name(), i, got, want[i])
		}
	}
	if rep := p.rec.Check(); !rep.Serializable {
		t.Errorf("%s: tree workload not serializable: %v", ctrl.Name(), rep.Cycle)
	}
}

// TestTreeWorkloadsAllControllers: randomized branching, async-fanning
// computations stay isolated under every controller variant.
func TestTreeWorkloadsAllControllers(t *testing.T) {
	combos := []struct {
		name string
		mk   func() core.Controller
	}{
		{"serial", func() core.Controller { return cc.NewSerial() }},
		{"vca-basic", func() core.Controller { return cc.NewVCABasic() }},
		{"vca-bound", func() core.Controller { return cc.NewVCABound() }},
		{"vca-route", func() core.Controller { return cc.NewVCARoute() }},
	}
	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				m := 2 + rng.Intn(3)
				trees := make([]*treeNode, 2+rng.Intn(6))
				for i := range trees {
					trees[i] = randTree(rng, m, 8)
				}
				runTreeWorkload(t, combo.mk(), m, trees)
				return !t.Failed()
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTreeDeepAsyncFanout: a wide async fan-out from one handler — the
// "multi-threaded computation" case — is admitted and isolated.
func TestTreeDeepAsyncFanout(t *testing.T) {
	root := &treeNode{mp: 0}
	for i := 0; i < 12; i++ {
		root.children = append(root.children, &treeNode{mp: 1 + i%2})
		root.async = append(root.async, true)
	}
	for _, ctrl := range []core.Controller{cc.NewVCABasic(), cc.NewVCABound(), cc.NewVCARoute()} {
		runTreeWorkload(t, ctrl, 3, []*treeNode{root, root, root})
	}
}
