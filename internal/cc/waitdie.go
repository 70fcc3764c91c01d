package cc

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// WaitDie is a representative of the paper's *second* algorithm group —
// "timestamp-ordering algorithms with rollback/recovery" (§1), which the
// paper mentions but does not describe. It schedules handler calls with
// timestamp-ordered locking and undoes computations instead of delaying
// them:
//
//   - Every computation takes a timestamp at its first spawn (kept across
//     retries, so a repeatedly aborted computation eventually becomes the
//     oldest and must win — no starvation).
//   - The first handler call on a microprotocol locks it until the
//     computation completes, taking a snapshot of its state (the
//     microprotocol must provide a core.Snapshotter).
//   - Conflicts resolve by the classic wait–die rule: an older computation
//     waits for a younger lock holder; a younger one "dies" — it aborts
//     with core.ErrComputationAborted, its snapshots are restored, its
//     locks released, and Isolated re-executes it.
//
// Waits only ever point from older to younger computations, so the
// wait-for graph is acyclic: no deadlocks. Locks are held to completion,
// so no computation ever observes state that is later rolled back — no
// dirty reads, no cascading aborts, and the committed execution is
// conflict-serializable (equivalently: the isolation property holds for
// the effects that survive).
//
// The price — and the reason the paper's own focus is the versioning
// group, whose computations are "never aborted" — is that handlers must
// tolerate re-execution: all their effects must live in snapshottable
// microprotocol state. A handler that sends a network message cannot be
// rolled back, so protocol stacks like internal/gc are out of scope for
// this controller.
type WaitDie struct {
	mu      sync.Mutex
	note    *notifier
	nextTS  uint64
	locks   map[*core.Microprotocol]*wdToken
	waiters map[*core.Microprotocol]map[*wdToken]bool
	aborts  uint64
	backoff bool // real time.Sleep backoff between retries (off under sched)
}

// NewWaitDie creates the wait–die rollback controller.
func NewWaitDie() *WaitDie {
	return &WaitDie{
		note:    newNotifier(),
		locks:   make(map[*core.Microprotocol]*wdToken),
		waiters: make(map[*core.Microprotocol]map[*wdToken]bool),
		backoff: true,
	}
}

// Name implements core.Controller.
func (c *WaitDie) Name() string { return "wait-die" }

// SetBlocker implements sched.Schedulable. It also disables the
// wall-clock retry backoff: under a virtual scheduler, sleeping conveys
// no ordering (the retry loop's fairness comes from the strategy), and
// real delays would only slow exploration down.
func (c *WaitDie) SetBlocker(b sched.Blocker) {
	c.mu.Lock()
	c.note.blk = b
	c.backoff = false
	c.mu.Unlock()
}

// Aborts reports the total number of aborts so far (for the E8
// experiment).
func (c *WaitDie) Aborts() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aborts
}

// wdToken keeps the declared set as the spec's ID-sorted slice; held
// locks and snapshots live in slices parallel to it.
type wdToken struct {
	ts      uint64
	attempt int
	mps     []*core.Microprotocol // Spec.MPs(): sorted by ID, immutable
	held    []bool                // parallel to mps; guarded by WaitDie.mu
	snapped []bool                // parallel to mps; guarded by WaitDie.mu
	snaps   []any                 // parallel to mps; guarded by WaitDie.mu
	aborted bool                  // guarded by WaitDie.mu
	diedOn  *core.Microprotocol   // lock whose holder killed us; guarded by WaitDie.mu
}

// pos returns mp's position in the declared set, or -1.
func (t *wdToken) pos(mp *core.Microprotocol) int {
	for i, m := range t.mps {
		if m == mp {
			return i
		}
	}
	return -1
}

// Spawn validates that every declared microprotocol is snapshottable and
// assigns the computation's timestamp. It never blocks, so the context is
// not consulted.
func (c *WaitDie) Spawn(_ context.Context, spec *core.Spec) (core.Token, error) {
	mps := spec.MPs()
	for _, mp := range mps {
		if mp.Snapshotter() == nil {
			return nil, &core.SpecError{
				Controller: c.Name(),
				Reason:     "microprotocol " + mp.Name() + " has no Snapshotter; rollback scheduling needs one",
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextTS++
	return &wdToken{
		ts:      c.nextTS,
		mps:     mps,
		held:    make([]bool, len(mps)),
		snapped: make([]bool, len(mps)),
		snaps:   make([]any, len(mps)),
	}, nil
}

// Request validates the declared set.
func (c *WaitDie) Request(t core.Token, _, h *core.Handler) error {
	tok := t.(*wdToken)
	if tok.pos(h.MP()) < 0 {
		return undeclared(h, tok.mps)
	}
	return nil
}

// Enter acquires the microprotocol's lock under the wait–die rule,
// snapshotting on first acquisition. Releases hand the lock directly to
// the oldest waiter (see grantNextLocked), so a repeatedly dying young
// computation cannot livelock an older one by re-grabbing the lock before
// the waiter wakes.
//
// A cancelled wait returns a *DeadlineError; if a release granted the
// lock while the thread was parked, the grant is passed on so the lock is
// not stranded. Locks the computation already holds stay held until
// Complete, so — as always under wait–die — no other computation observes
// its partial effects before they commit.
func (c *WaitDie) Enter(ctx context.Context, t core.Token, _, h *core.Handler) error {
	tok := t.(*wdToken)
	mp := h.MP()
	i := tok.pos(mp)
	if i < 0 {
		return undeclared(h, tok.mps)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		holder := c.locks[mp]
		if holder == tok {
			// Reentrant, or granted by a release while we waited. If a
			// sibling thread aborted us in the meantime, pass the lock
			// on rather than stranding it.
			if tok.aborted {
				tok.held[i] = false
				c.grantNextLocked(mp)
				return core.ErrComputationAborted
			}
			return nil
		}
		if tok.aborted {
			c.dropWaiterLocked(mp, tok)
			return core.ErrComputationAborted
		}
		switch {
		case holder == nil:
			c.dropWaiterLocked(mp, tok)
			c.acquireLocked(mp, tok)
			return nil
		case tok.ts < holder.ts:
			// Older waits for younger.
			w := c.waiters[mp]
			if w == nil {
				w = make(map[*wdToken]bool)
				c.waiters[mp] = w
			}
			w[tok] = true
			if err := c.note.waitLocked(ctx, &c.mu); err != nil {
				if c.locks[mp] == tok {
					// A release granted us the lock while we were parked;
					// hand it on rather than strand it.
					tok.held[i] = false
					c.grantNextLocked(mp)
				} else {
					c.dropWaiterLocked(mp, tok)
				}
				return deadline("enter", h, err)
			}
		default:
			// Younger dies: roll back and retry with the same ts.
			tok.aborted = true
			tok.diedOn = mp
			c.aborts++
			return core.ErrComputationAborted
		}
	}
}

// acquireLocked hands mp to tok, snapshotting on first touch. Callers
// hold c.mu.
func (c *WaitDie) acquireLocked(mp *core.Microprotocol, tok *wdToken) {
	c.locks[mp] = tok
	i := tok.pos(mp)
	tok.held[i] = true
	if !tok.snapped[i] {
		tok.snapped[i] = true
		tok.snaps[i] = mp.Snapshotter().Snapshot()
	}
}

func (c *WaitDie) dropWaiterLocked(mp *core.Microprotocol, tok *wdToken) {
	if w := c.waiters[mp]; w != nil {
		delete(w, tok)
	}
}

// grantNextLocked frees mp and hands it to the oldest live waiter, if
// any. Callers hold c.mu.
func (c *WaitDie) grantNextLocked(mp *core.Microprotocol) {
	delete(c.locks, mp)
	var oldest *wdToken
	for w := range c.waiters[mp] {
		if !w.aborted && (oldest == nil || w.ts < oldest.ts) {
			oldest = w
		}
	}
	if oldest != nil {
		delete(c.waiters[mp], oldest)
		c.acquireLocked(mp, oldest)
	}
	c.note.broadcastLocked()
}

// Exit implements core.Controller; locks are held to completion.
func (c *WaitDie) Exit(core.Token, *core.Handler) {}

// RootReturned implements core.Controller (no-op).
func (c *WaitDie) RootReturned(core.Token) {}

// Complete releases the computation's locks; its effects commit.
func (c *WaitDie) Complete(t core.Token) {
	tok := t.(*wdToken)
	c.mu.Lock()
	c.releaseLocked(tok)
	c.mu.Unlock()
}

// PrepareRetry implements core.Restorer: restore every touched
// microprotocol to its pre-first-touch snapshot (nobody else saw the
// intermediate state — the lock was held throughout), release the locks,
// and hand back a fresh attempt with the original timestamp. A growing
// backoff keeps a tight retry loop from livelocking an older computation
// that is slower to re-acquire the contested lock.
func (c *WaitDie) PrepareRetry(t core.Token) (core.Token, bool) {
	tok := t.(*wdToken)
	c.mu.Lock()
	for i, mp := range tok.mps {
		if tok.snapped[i] {
			mp.Snapshotter().Restore(tok.snaps[i])
		}
	}
	c.releaseLocked(tok)
	useBackoff := c.backoff
	if !useBackoff {
		// Virtual-scheduler analog of the backoff below: an unthrottled
		// die/retry loop never blocks, so an adversarial schedule could
		// spin it past any step bound — a livelock the wall-clock backoff
		// prevents in production. Park until the killing conflict clears
		// (every lock release broadcasts). The retrying computation holds
		// no locks here, so it cannot extend any wait cycle.
		for {
			h := c.locks[tok.diedOn]
			if h == nil || h.ts >= tok.ts {
				break
			}
			c.note.waitLocked(context.TODO(), &c.mu) // unbounded: cannot fail
		}
	}
	c.mu.Unlock()
	if useBackoff {
		backoff := time.Duration(tok.attempt+1) * 200 * time.Microsecond
		if backoff > 10*time.Millisecond {
			backoff = 10 * time.Millisecond
		}
		time.Sleep(backoff) //samoa:ignore blocking — production-only backoff; under a scheduler useBackoff is false and the park above is the seam
	}
	return &wdToken{
		ts:      tok.ts,
		attempt: tok.attempt + 1,
		mps:     tok.mps,
		held:    make([]bool, len(tok.mps)),
		snapped: make([]bool, len(tok.mps)),
		snaps:   make([]any, len(tok.mps)),
	}, true
}

// releaseLocked drops tok's locks, handing each to its oldest waiter.
// Callers hold c.mu.
func (c *WaitDie) releaseLocked(tok *wdToken) {
	for i, mp := range tok.mps {
		if tok.held[i] && c.locks[mp] == tok {
			c.grantNextLocked(mp)
		}
		tok.held[i] = false
	}
	c.note.broadcastLocked()
}
