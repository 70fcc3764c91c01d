// Package ccmirror mirrors the locking structure of internal/cc's
// version table in a self-contained fixture: per-slot mu and spawnMu,
// an atomic lv guarded by mu, a plain applied counter written under mu
// and read atomically, gv published by CAS, and the slow path's
// lockSlots/unlockSlots helpers over the compiled lockOrder. publish and
// admit nest spawnMu→mu, the canonical order any such nesting in cc must
// follow. It is clean under every analyzer at head; seeded_test.go
// mutates copies of it — swapping the canonical spawnMu→mu order,
// dropping a //samoa:guard, planting a stale //samoa:ignore — and
// checks the matching analyzer catches each seed.
package ccmirror

import (
	"sync"
	"sync/atomic"
)

// slot is one version-table shard, protocol annotations and all.
type slot struct {
	mu      sync.Mutex
	spawnMu sync.Mutex

	lv atomic.Uint64 //samoa:guard mu — written only under mu; read lock-free

	//samoa:guard mu — written plainly under mu; read via atomic.LoadUint64
	applied uint64

	gv atomic.Uint64
}

// fprint is a compiled footprint: the slots a spawn touches, with their
// lock order precomputed ascending so multi-slot admission cannot
// invert.
type fprint struct {
	states    []*slot
	lockOrder []int
}

// lockSlots takes every slot's spawnMu in compiled order — the
// canonical ordered-by-construction idiom every slow-path claim shares.
func (fp *fprint) lockSlots() {
	for _, p := range fp.lockOrder {
		fp.states[p].spawnMu.Lock()
	}
}

func (fp *fprint) unlockSlots() {
	for _, p := range fp.lockOrder {
		fp.states[p].spawnMu.Unlock()
	}
}

// claimSlow advances every gv with all of the footprint's slot locks
// held.
func claimSlow(fp *fprint) {
	fp.lockSlots()
	for _, st := range fp.states {
		st.gv.Add(1)
	}
	fp.unlockSlots()
}

// claimFast is the quiescent-slot CAS admission: loads the compare
// value atomically, as the retry-loop contract requires.
func claimFast(st *slot) bool {
	for {
		old := st.gv.Load()
		if st.lv.Load() != old {
			return false
		}
		if st.gv.CompareAndSwap(old, old+1) {
			return true
		}
	}
}

// publish is the slow-path release: bookkeeping under spawnMu, then the
// lv advance under mu — the canonical spawnMu→mu nesting.
func publish(st *slot) {
	st.spawnMu.Lock()
	st.advance(st.gv.Load())
	st.spawnMu.Unlock()
}

// admit nests the same two locks in the same canonical order.
func admit(st *slot) bool {
	st.spawnMu.Lock()
	st.mu.Lock()
	ok := st.lv.Load() == st.gv.Load()
	st.mu.Unlock()
	st.spawnMu.Unlock()
	return ok
}

// advance raises lv under mu, honoring both guard contracts.
func (st *slot) advance(n uint64) {
	st.mu.Lock()
	if n > st.lv.Load() {
		st.lv.Store(n)
		st.applied++
	}
	st.mu.Unlock()
}

// stats reads the published values lock-free.
func stats(st *slot) (uint64, uint64) {
	return st.lv.Load(), atomic.LoadUint64(&st.applied)
}
