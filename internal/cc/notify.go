package cc

import (
	"context"
	"sync"

	"repro/internal/sched"
)

// waitEntry is one parked thread — on an mpState's threshold-ordered
// queue or on a notifier's FIFO wait set: the lv threshold it needs (0
// on a notifier) and the one-shot waiter it parked on. The waiter comes
// from the owner's Blocker — pooled channels in production, virtual
// scheduler park points under deterministic exploration. c is non-nil
// only for cancellable waits.
type waitEntry struct {
	min uint64
	w   sched.Waiter
	c   *waitCancel
}

// waitCancel coordinates a parked waiter with its cancellation watchdog.
// done is guarded by the lock of the queue the entry parked on; canceled
// is written only by the watchdog, under that same lock, before it wakes
// the waiter.
type waitCancel struct {
	done     bool // the entry left the queue (woken or cancelled)
	canceled bool // it left because the context expired
}

// cancelFor returns the cancellation record a wait under ctx needs, or
// ctx's error if it has already expired. Unbounded contexts (nil, or
// Done() == nil as for context.Background) get no record, so their wait
// is a plain park: no watchdog goroutine, no extra allocation, and —
// critically for the deterministic explorer — no scheduling
// nondeterminism.
func cancelFor(ctx context.Context) (*waitCancel, error) {
	if ctx == nil || ctx.Done() == nil {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &waitCancel{}, nil
}

// park is the one cancellable wait behind mpState.waitAtLeast and
// notifier.waitLocked. The caller holds mu, which guards the queue *q
// that e has just been put on; park releases mu and blocks until a waker
// takes e off the queue (see wake). A cancellable entry is also watched:
// if ctx expires first, the watchdog removes e from *q and wakes it, and
// park returns ctx's error. mu is not held on return.
func park(ctx context.Context, mu *sync.Mutex, q *[]waitEntry, e waitEntry) error {
	mu.Unlock()
	if e.c == nil {
		e.w.Park()
		return nil
	}
	stop := make(chan struct{})
	//samoa:ignore blocking — cancellation watchdog; the park below stays on the Blocker seam, and unbounded contexts never reach this path
	go func() {
		select { //samoa:ignore blocking — watchdog body: waits on ctx expiry, a seam the Blocker cannot express; unbounded contexts never start it
		case <-ctx.Done():
			mu.Lock()
			if !e.c.done {
				ws := *q
				for j := range ws {
					if ws[j].c == e.c {
						copy(ws[j:], ws[j+1:])
						ws[len(ws)-1] = waitEntry{}
						*q = ws[:len(ws)-1]
						break
					}
				}
				e.c.done, e.c.canceled = true, true
				e.w.Wake()
			}
			mu.Unlock()
		case <-stop: //samoa:ignore blocking — watchdog shutdown signal from the waking thread
		}
	}()
	e.w.Park()
	close(stop)
	// Read canceled under mu: a Park that returns without a Wake (the
	// virtual scheduler has stopped) leaves e queued, so the watchdog may
	// still be writing it.
	mu.Lock()
	canceled := e.c.canceled
	mu.Unlock()
	if canceled {
		return ctx.Err()
	}
	return nil
}

// wake wakes an entry its caller has just taken off the queue, first
// marking a cancellable one done so its watchdog leaves it alone. The
// queue's lock must be held.
func wake(e waitEntry) {
	if e.c != nil {
		e.c.done = true
	}
	e.w.Wake()
}

// notifier replaces sync.Cond in controllers whose blocking must be
// visible to a deterministic scheduler. Semantics match the cond idiom
// the controllers used before:
//
//	n.waitLocked(ctx, &mu) ≈ cond.Wait()      — unlocks mu, parks, relocks
//	n.broadcastLocked()    ≈ cond.Broadcast() (call with mu held)
//
// Each wait parks on a fresh one-shot Waiter from the Blocker, so under
// sched.DefaultBlocker this costs the same pooled channel operations as
// before, while under a *sched.Scheduler every wait is a virtual park
// the exploration strategies can order. A bounded context lets an
// admission loop abandon cleanly instead of blocking forever behind a
// stuck computation (fault containment, DESIGN.md §10).
type notifier struct {
	blk sched.Blocker
	ws  []waitEntry
}

func newNotifier() *notifier { return &notifier{blk: sched.DefaultBlocker()} }

// waitLocked atomically releases mu and parks until the next signal or
// broadcast, then reacquires mu. It returns nil after a wakeup and
// ctx.Err() when a bounded ctx expires first; either way mu is held again
// on return. Spurious wakeups do not occur, but callers keep their
// predicate loops (another thread can win the race after wakeup).
func (n *notifier) waitLocked(ctx context.Context, mu *sync.Mutex) error {
	c, err := cancelFor(ctx)
	if err != nil {
		return err
	}
	e := waitEntry{w: n.blk.NewWaiter(), c: c}
	n.ws = append(n.ws, e)
	err = park(ctx, mu, &n.ws, e)
	mu.Lock()
	return err
}

// signalLocked wakes the longest-parked thread (FIFO) and reports
// whether there was one. Unlike broadcastLocked, a true return is a
// transfer: exactly the woken thread left the wait set, so the caller
// can hand it a claim directly — threads that never park cannot barge in
// ahead of it. The controller's mutex must be held.
func (n *notifier) signalLocked() bool {
	if len(n.ws) == 0 {
		return false
	}
	e := n.ws[0]
	copy(n.ws, n.ws[1:])
	n.ws[len(n.ws)-1] = waitEntry{}
	n.ws = n.ws[:len(n.ws)-1]
	wake(e)
	return true
}

// broadcastLocked wakes every parked thread. The controller's mutex must
// be held, which orders the wake set against concurrent waitLocked calls.
func (n *notifier) broadcastLocked() {
	for i, e := range n.ws {
		wake(e)
		n.ws[i] = waitEntry{}
	}
	n.ws = n.ws[:0]
}
