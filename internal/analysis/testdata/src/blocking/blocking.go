// Package blocking is golden testdata for the blocking check: raw
// scheduling points inside handlers and controllers that the
// deterministic explorer cannot see.
package blocking

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
)

type state struct {
	mu sync.Mutex
	wg sync.WaitGroup
	ch chan int
}

func build() {
	mp := core.NewMicroprotocol("B")
	s := &state{ch: make(chan int)}

	mp.AddHandler("sleepy", func(ctx *core.Context, msg core.Message) error {
		time.Sleep(time.Millisecond) // want `time\.Sleep inside handler B\.sleepy`
		return nil
	})

	mp.AddHandler("chatty", func(ctx *core.Context, msg core.Message) error {
		s.ch <- 1   // want `raw channel send inside handler B\.chatty`
		v := <-s.ch // want `raw channel receive inside handler B\.chatty`
		_ = v
		for range s.ch { // want `ranging over a channel inside handler B\.chatty`
		}
		select { // want `select inside handler B\.chatty`
		case <-s.ch: // want `raw channel receive inside handler B\.chatty`
		}
		return nil
	})

	mp.AddHandler("spawner", func(ctx *core.Context, msg core.Message) error {
		go func() {}() // want `bare go statement inside handler B\.spawner`
		return nil
	})

	mp.AddHandler("synced", func(ctx *core.Context, msg core.Message) error {
		s.mu.Lock() // want `sync\.Mutex\.Lock inside handler B\.synced`
		s.mu.Unlock()
		s.wg.Wait() // want `sync\.WaitGroup\.Wait inside handler B\.synced`
		return nil
	})

	// Fork is the sanctioned way to run concurrent work: clean.
	mp.AddHandler("forker", func(ctx *core.Context, msg core.Message) error {
		ctx.Fork(func(ctx *core.Context) error { return nil })
		return nil
	})
}

// delay is ordinary code outside any computation context: not flagged.
func delay() { time.Sleep(time.Millisecond) }

// slowCtrl implements core.Controller with blocking that bypasses the
// sched.Blocker seam. Its bookkeeping mutex is exempt; its channel wait
// and sleep are not.
type slowCtrl struct {
	mu   sync.Mutex
	cond chan struct{}
}

func (c *slowCtrl) Name() string { return "slow" }

func (c *slowCtrl) Spawn(ctx context.Context, spec *core.Spec) (core.Token, error) { return nil, nil }

func (c *slowCtrl) Request(t core.Token, caller, h *core.Handler) error { return nil }

func (c *slowCtrl) Enter(ctx context.Context, t core.Token, caller, h *core.Handler) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	<-c.cond // want `raw channel receive inside controller slowCtrl\.Enter`
	return nil
}

func (c *slowCtrl) Exit(t core.Token, h *core.Handler) {}

func (c *slowCtrl) RootReturned(t core.Token) {}

func (c *slowCtrl) Complete(t core.Token) {
	time.Sleep(time.Millisecond) // want `time\.Sleep inside controller slowCtrl\.Complete`
}

// shardedCtrl models the per-slot admission pattern of DESIGN.md §11: a
// mutex per microprotocol slot, acquired in canonical order on the
// spawn slow path (here via a helper, so the exemption must propagate
// through reachable functions), and a drain mutex around batched
// releases. All of that mutex traffic is sanctioned controller
// bookkeeping; a genuinely raw scheduling point in the same method is
// still flagged.
type shardSlot struct {
	spawnMu sync.Mutex
	relMu   sync.Mutex
}

type shardedCtrl struct {
	slots []*shardSlot
	done  chan struct{}
}

func (c *shardedCtrl) Name() string { return "sharded" }

func (c *shardedCtrl) Spawn(ctx context.Context, spec *core.Spec) (core.Token, error) {
	c.claimSlow([]int{0, 1})
	return nil, nil
}

// claimSlow is reachable only from Spawn: the ordered per-slot locks
// are exempt transitively, not just when written inline.
func (c *shardedCtrl) claimSlow(order []int) {
	for _, i := range order {
		c.slots[i].spawnMu.Lock()
	}
	for _, i := range order {
		c.slots[i].spawnMu.Unlock()
	}
}

func (c *shardedCtrl) Request(t core.Token, caller, h *core.Handler) error { return nil }

func (c *shardedCtrl) Enter(ctx context.Context, t core.Token, caller, h *core.Handler) error {
	return nil
}

func (c *shardedCtrl) Exit(t core.Token, h *core.Handler) {}

func (c *shardedCtrl) RootReturned(t core.Token) {}

func (c *shardedCtrl) Complete(t core.Token) {
	c.slots[0].relMu.Lock()
	defer c.slots[0].relMu.Unlock()
	<-c.done // want `raw channel receive inside controller shardedCtrl\.Complete`
}

// kernel models a controller family's shared kernel: an unexported type
// that is not a controller itself (it has no Name) and whose methods
// reach the controllers embedding it only by promotion. Its raw
// blocking is still flagged — once, under the first embedding
// controller's name and naming the others, not once per embedder.
type kernel struct{ wake chan struct{} }

func (k *kernel) Spawn(ctx context.Context, spec *core.Spec) (core.Token, error) { return nil, nil }

func (k *kernel) Request(t core.Token, caller, h *core.Handler) error { return nil }

func (k *kernel) Enter(ctx context.Context, t core.Token, caller, h *core.Handler) error {
	<-k.wake // want `raw channel receive inside controller kernelCtrl\.Enter \(shared with kernelCtrl2\) is`
	return nil
}

func (k *kernel) Exit(t core.Token, h *core.Handler) {}

func (k *kernel) RootReturned(t core.Token) {}

func (k *kernel) Complete(t core.Token) {}

type kernelCtrl struct{ kernel }

func (c *kernelCtrl) Name() string { return "kernel" }

type kernelCtrl2 struct{ kernel }

func (c *kernelCtrl2) Name() string { return "kernel2" }
