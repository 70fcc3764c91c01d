package cc

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sched"
)

// mpState is the per-microprotocol versioning state shared by the VCA*
// controllers: the local version counter lv of the paper, the global
// version counter gv (rule 1), an ordered queue of parked waiters, and a
// queue of deferred release requests. Since the contention work
// (DESIGN.md §11) every microprotocol slot is an independent shard —
// there is no controller-wide lock anywhere in the admission, wait, or
// release paths.
//
// The paper's rules 3/4 read "wait until (1)/(2) is true, then upgrade the
// local version". Three mechanisms keep that cheap:
//
//   - Deferred releases: a release request (minLv, target) is queued and
//     applied — in ascending order — whenever lv changes and reaches
//     minLv. Because minLv values derive from the per-slot-ordered gv
//     increments of rule 1, applications happen exactly in spawn order,
//     which is the correctness condition of the paper's proofs.
//   - Yield, then park, then hand off: every admission predicate used by
//     the algorithms has the shape "lv >= threshold". The fast path reads
//     lv atomically and never takes the mutex; a failed read yields the
//     processor once, reads lv again, and only then parks on an ordered
//     queue keyed by the threshold. When lv advances, exactly the
//     now-admissible prefix is woken (when an update leaves lv
//     unchanged, nobody is signalled), and the controller call whose
//     release woke someone yields once, after its last release and
//     outside every lock, so the admitted computation runs now rather
//     than behind the releaser's next spawn (handoff). Both yields apply
//     under the production blocker only.
//   - Group commit: releases are pushed onto a per-slot lock-free stack
//     (relq) and one drainer folds the whole batch into the pending
//     queue, advancing lv and waking the due waiters once per batch
//     rather than once per release (requestNode/drain below).
type mpState struct {
	blk     sched.Blocker
	mu      sync.Mutex
	lv      atomic.Uint64 //samoa:guard mu — written only under mu; read lock-free by waitAtLeast
	pending []release     // sorted by minLv ascending
	waiters []waitEntry   // sorted by min ascending; FIFO among equal thresholds

	// Rule-1 admission shard. gv is the slot's global version counter;
	// the invariant lv <= gv always holds (lv only ever rises to pv
	// values that gv already passed). A slot is *quiescent* when
	// lv == gv: every computation that ever claimed it has released it.
	//
	// spawnMu serializes slow-path claims on this slot. A multi-slot
	// slow-path spawn holds the spawnMu of every declared slot
	// simultaneously, acquired in ascending slot order (the footprint's
	// compiled lockOrder), which makes the claim critical sections of
	// conflicting spawns pairwise non-overlapping — hence totally ordered
	// in time — so version orders can never cycle across slots. The
	// lock-free fast path (versionTable.claimFast) bypasses spawnMu
	// entirely: it CASes gv only at quiescence, which proves no
	// conflicting computation is in flight.
	spawnMu sync.Mutex
	gv      atomic.Uint64

	// fastSpawns counts spawns whose lock-free claim started at this
	// slot; kept per-slot (not on the table) so the hot path never
	// touches a shared cache line. versionTable.SpawnStats sums them.
	fastSpawns atomic.Uint64

	// relq is the group-commit stack: completed computations push their
	// embedded release nodes here lock-free; whoever wins the draining
	// flag folds the batch into pending under mu and advances lv once.
	relq     atomic.Pointer[relNode]
	draining atomic.Uint32

	// rw is VCARW's reader-group bookkeeping for this slot, created
	// lazily. Nil for every other controller.
	rw *rwState //samoa:guard spawnMu — created and mutated only under the slot's spawnMu (rwClaimLocked, VCARW.Complete)

	// phantoms counts the versions consumed by abandoned fast-path claims
	// retired as phantom releases (versionTable.unclaim). Once every
	// computation has completed, gv == lv == versions claimed by spawns +
	// phantoms. Only tests read it.
	phantoms atomic.Uint64
}

// release asks for lv to be raised to target once lv >= minLv. Targets
// never lower lv (the algorithms' "never downgraded" guarantee).
type release struct {
	minLv  uint64
	target uint64
}

// relNode is one deferred-release request on the group-commit stack.
// Tokens embed one node per footprint position (filled at claim time:
// minLv is the pre-claim gv, target the post-claim gv == pv), so the
// steady-state release path allocates nothing. A node must be pushed at
// most once; its fields are immutable from push until the drainer
// consumes it.
type relNode struct {
	minLv  uint64
	target uint64
	next   *relNode
}

func newMPState(blk sched.Blocker) *mpState { return &mpState{blk: blk} }

// adaptive reports whether blk is the production blocker, under which
// waits yield before parking and releases hand off the processor. Under
// a deterministic scheduler only one task runs at a time, so lv cannot
// move during a wait's yield, and neither yield is a scheduling point it
// controls: both are skipped, and exploration visits exactly the
// schedules it did.
func adaptive(blk sched.Blocker) bool { return blk == sched.DefaultBlocker() }

// waitAtLeast blocks until lv >= min. The fast path is a single atomic
// load; next the caller yields once (production blocker only) and reads
// lv again; only then does it park on the ordered wait queue. A bounded
// ctx makes the wait abortable: it returns ctx's error if ctx expires
// first, so the caller's admission wait becomes a clean abort instead of
// a permanent block. An unbounded ctx parks with no watchdog (see
// cancelFor).
func (st *mpState) waitAtLeast(ctx context.Context, min uint64) error {
	if st.lv.Load() >= min {
		return nil
	}
	if adaptive(st.blk) {
		runtime.Gosched() // the release is often a handler's length away
		if st.lv.Load() >= min {
			return nil
		}
	}
	c, err := cancelFor(ctx)
	if err != nil {
		return err
	}
	st.mu.Lock()
	if st.lv.Load() >= min {
		st.mu.Unlock()
		return nil
	}
	e := waitEntry{min: min, w: st.blk.NewWaiter(), c: c}
	i := sort.Search(len(st.waiters), func(i int) bool { return st.waiters[i].min > min })
	st.waiters = append(st.waiters, waitEntry{})
	copy(st.waiters[i+1:], st.waiters[i:])
	st.waiters[i] = e
	return park(ctx, &st.mu, &st.waiters, e)
}

// bump increments lv by one (rule 4 of VCAbound: a handler execution
// completed), applies any releases that became due, and wakes the
// now-admissible waiters. It reports whether it woke any.
func (st *mpState) bump() (woke bool) {
	st.mu.Lock()
	woke = st.advanceLocked(st.lv.Load() + 1)
	st.mu.Unlock()
	return woke
}

// request queues a release, allocating its node. The steady-state paths
// push token-embedded nodes through requestNode instead; this entry
// point serves the rare flows with no node at hand (fast-path claim
// abandonment, tests).
func (st *mpState) request(minLv, target uint64) {
	st.requestNode(&relNode{minLv: minLv, target: target})
}

// requestNode pushes one release onto the group-commit stack and joins
// the drain protocol. Exactly one thread drains at a time; a push that
// loses the draining flag returns immediately — the current drainer's
// post-clear recheck is guaranteed to see the node. Uncontended (and
// under the deterministic explorer, where requestNode contains no yield
// point and therefore runs atomically), the push drains synchronously
// and the call behaves exactly like the old one-release-one-wakeup path.
// It reports whether this call's drain woke a parked waiter.
func (st *mpState) requestNode(n *relNode) (woke bool) {
	for {
		head := st.relq.Load()
		n.next = head
		if st.relq.CompareAndSwap(head, n) {
			break
		}
	}
	return st.drain()
}

// drain folds batches off the release stack into the pending queue until
// the stack is observed empty: one advanceLocked per batch applies every
// due release and wakes the whole now-admissible prefix of waiters in a
// single pass — the group commit. The clear-then-recheck ordering against
// requestNode's push-then-CAS makes lost releases impossible. It reports
// whether any batch woke a parked waiter.
func (st *mpState) drain() (woke bool) {
	for st.draining.CompareAndSwap(0, 1) {
		if batch := st.relq.Swap(nil); batch != nil {
			st.mu.Lock()
			for n := batch; n != nil; n = n.next {
				st.enqueueLocked(n.minLv, n.target)
			}
			if st.advanceLocked(st.lv.Load()) {
				woke = true
			}
			st.mu.Unlock()
		}
		st.draining.Store(0)
		if st.relq.Load() == nil {
			return woke
		}
	}
	return woke
}

// enqueueLocked inserts one release into the pending queue, keeping it
// sorted by minLv ascending. Callers hold st.mu.
func (st *mpState) enqueueLocked(minLv, target uint64) {
	i := sort.Search(len(st.pending), func(i int) bool { return st.pending[i].minLv >= minLv })
	st.pending = append(st.pending, release{})
	copy(st.pending[i+1:], st.pending[i:])
	st.pending[i] = release{minLv: minLv, target: target}
}

// advanceLocked raises lv to newLv, drains the due prefix of the pending
// queue (cascading releases), and — only if lv actually changed — wakes
// exactly the waiters whose thresholds are now satisfied, reporting
// whether there were any. Callers hold st.mu.
func (st *mpState) advanceLocked(newLv uint64) (woke bool) {
	lv := st.lv.Load()
	if newLv > lv {
		lv = newLv
	}
	d := 0
	for d < len(st.pending) && lv >= st.pending[d].minLv {
		if t := st.pending[d].target; t > lv {
			lv = t
		}
		d++
	}
	if d > 0 {
		// Copy-down instead of reslicing off the front, so the backing
		// array (and its capacity) is reused by later requests.
		m := copy(st.pending, st.pending[d:])
		st.pending = st.pending[:m]
	}
	if lv == st.lv.Load() {
		return false // nothing changed: skip signalling entirely
	}
	st.lv.Store(lv)
	n := 0
	for n < len(st.waiters) && st.waiters[n].min <= lv {
		wake(st.waiters[n])
		n++
	}
	if n > 0 {
		m := copy(st.waiters, st.waiters[n:])
		clear(st.waiters[m:])
		st.waiters = st.waiters[:m]
	}
	return n > 0
}

// versionTable owns the dense microprotocol index and the mpState of
// every microprotocol a controller has seen. Each state is a fully
// independent shard — its own gv counter, admission lock, wait queue and
// release stack — so the table's mutex guards only slot assignment and
// is never touched after a spec's footprint has been compiled.
//
// Microprotocols get controller-local dense slots on first sight, so the
// per-spawn work is an array walk over a compiled footprint rather than
// pointer-keyed map churn.
type versionTable struct {
	blk       sched.Blocker
	useBounds bool // rule-1 deltas come from spec bounds (VCAbound)

	mu     sync.Mutex
	index  map[*core.Microprotocol]int // mp → dense slot; grows under mu
	states []*mpState                  // by dense slot; pointers are stable

	footprints sync.Map // *core.Spec → *footprint (dropped at RetireEpoch once no epoch can use it)

	// fastEmpty counts fast-path spawns of empty footprints (no slot to
	// charge them to); slowSpawns counts ordered-lock spawns. Slot-charged
	// fast counts live on the states — see mpState.fastSpawns.
	fastEmpty  atomic.Uint64
	slowSpawns atomic.Uint64
}

func newVersionTable() *versionTable {
	return &versionTable{
		blk:   sched.DefaultBlocker(),
		index: make(map[*core.Microprotocol]int),
	}
}

// SetBlocker implements sched.Schedulable for every VCA* controller:
// every park/wake point goes through blk. Must be called before the
// controller admits its first computation.
func (vt *versionTable) SetBlocker(blk sched.Blocker) {
	vt.mu.Lock()
	vt.blk = blk
	for _, st := range vt.states {
		st.blk = blk
	}
	vt.mu.Unlock()
}

// handoff ends a controller call (Complete, Exit, RootReturned) whose
// releases woke a parked computation: the caller yields its processor
// once, so the admitted computation runs now instead of queueing behind
// the caller's next spawn — the runtime's own semrelease handoff. Callers
// hold no lock: not a slot's mu or spawnMu, not a token's mu.
func (vt *versionTable) handoff(woke bool) {
	if woke && adaptive(vt.blk) {
		runtime.Gosched()
	}
}

// SpawnStats reports how many spawns were admitted by the lock-free fast
// path and by the ordered-lock slow path (DESIGN.md §11; for tests,
// benchmarks, and the E11 tables). VCARW spawns always take the slow
// path.
func (vt *versionTable) SpawnStats() (fast, slow uint64) {
	vt.mu.Lock()
	fast = vt.fastEmpty.Load()
	for _, st := range vt.states {
		fast += st.fastSpawns.Load()
	}
	vt.mu.Unlock()
	return fast, vt.slowSpawns.Load()
}

// slotLocked returns mp's dense slot, assigning the next one on first
// sight. Callers hold vt.mu.
func (vt *versionTable) slotLocked(mp *core.Microprotocol) int {
	if i, ok := vt.index[mp]; ok {
		return i
	}
	i := len(vt.states)
	vt.index[mp] = i
	vt.states = append(vt.states, newMPState(vt.blk))
	return i
}

// claim performs rule 1 for one spawn: every declared slot's gv advances
// by its delta, and nodes[i] records the claim — minLv is the pre-claim
// gv (the lv value the computation's admission waits for), target the
// post-claim gv (the private version pv, and the lv value its release
// will install). The same nodes are later pushed to the slots' release
// stacks by Complete, so rule 3 allocates nothing.
func (vt *versionTable) claim(fp *footprint, nodes []relNode) {
	if !vt.claimFast(fp, nodes) {
		vt.claimSlow(fp, nodes)
	}
}

// claimFast is the lock-free admission path: it succeeds only when every
// declared slot is quiescent (lv == gv — no conflicting computation in
// flight), publishing each claim by a CAS on the slot's gv. Quiescence
// is what makes per-slot CAS sufficient for rule 1's atomicity: a claim
// can never slot in *behind* an in-flight conflicting spawn, so the
// per-slot version orders of any two computations always agree and the
// admission waits of a fast-path computation are satisfied the moment it
// is spawned. On any conflict the already-claimed prefix is rolled back
// (or retired as an instantly-released phantom when a later claim has
// built on it) and the spawn falls to the ordered-lock slow path.
func (vt *versionTable) claimFast(fp *footprint, nodes []relNode) bool {
	for _, st := range fp.states {
		if st.gv.Load() != st.lv.Load() {
			return false // conflicting computation in flight: don't claim
		}
	}
	for i, st := range fp.states {
		g := st.gv.Load()
		if g != st.lv.Load() || !st.gv.CompareAndSwap(g, g+fp.deltas[i]) {
			vt.unclaim(fp, nodes, i)
			return false
		}
		nodes[i] = relNode{minLv: g, target: g + fp.deltas[i]}
	}
	if len(fp.states) > 0 {
		fp.states[0].fastSpawns.Add(1)
	} else {
		vt.fastEmpty.Add(1)
	}
	return true
}

// unclaim abandons the first n fast-path claims of a failed claimFast.
// A claim nobody has built on is reverted by the inverse CAS; one that a
// concurrent spawn has already stacked a version on is retired as a
// phantom — an instantly-completed computation whose release keeps the
// slot's version chain gap-free.
func (vt *versionTable) unclaim(fp *footprint, nodes []relNode, n int) {
	for j := 0; j < n; j++ {
		st := fp.states[j]
		if !st.gv.CompareAndSwap(nodes[j].target, nodes[j].minLv) {
			st.phantoms.Add(nodes[j].target - nodes[j].minLv)
			st.request(nodes[j].minLv, nodes[j].target)
		}
	}
}

// claimSlow is the ordered-lock admission path for overlapping
// footprints: advance all the gv counters while holding every declared
// slot's spawnMu (two-phase — conflicting spawns' critical sections
// cannot overlap, so cross-slot version orders cannot cycle), then
// release. Disjoint spawns that both fall here still proceed in
// parallel: they share no slot, hence no lock.
func (vt *versionTable) claimSlow(fp *footprint, nodes []relNode) {
	fp.lockSlots()
	for i, st := range fp.states {
		g := st.gv.Add(fp.deltas[i])
		nodes[i] = relNode{minLv: g - fp.deltas[i], target: g}
	}
	fp.unlockSlots()
	vt.slowSpawns.Add(1)
}

// lockSlots acquires the spawnMu of every declared slot in ascending
// slot order (the compiled lockOrder — deadlock freedom).
func (fp *footprint) lockSlots() {
	for _, p := range fp.lockOrder {
		fp.states[p].spawnMu.Lock()
	}
}

func (fp *footprint) unlockSlots() {
	for _, p := range fp.lockOrder {
		fp.states[p].spawnMu.Unlock()
	}
}

// InstallEpoch is the synchronous half of core.Reconfigurer for every
// VCA* controller, run inside Reconfigure before the new epoch is
// published. A replacement continues its predecessor's slot — both
// microprotocols index the same mpState, so old-epoch computations still
// holding the old version serialize against new-epoch claims. Removals
// need nothing: the stack refuses specs naming a microprotocol outside
// the pinned epoch, and a re-added one resumes the chain its slot kept.
func (vt *versionTable) InstallEpoch(ec core.EpochChange) {
	vt.mu.Lock()
	for _, r := range ec.Replaced {
		vt.index[r.New] = vt.slotLocked(r.Old)
	}
	vt.mu.Unlock()
}

// RetireEpoch is the asynchronous half, run once the superseded epoch's
// last computation has exited: each removed slot drains to its final gv
// (normally at once — only that epoch could claim it, since the stack
// leaves out a microprotocol the live epoch has re-added), and footprints
// naming a removed or replaced microprotocol, which no later epoch
// admits, leave the cache.
func (vt *versionTable) RetireEpoch(ec core.EpochChange) error {
	stale := make(map[*core.Microprotocol]bool, len(ec.Removed)+len(ec.Replaced))
	for _, mp := range ec.Removed {
		stale[mp] = true
		var st *mpState
		vt.mu.Lock()
		if i, ok := vt.index[mp]; ok {
			st = vt.states[i]
		}
		vt.mu.Unlock()
		if st != nil {
			st.waitAtLeast(context.TODO(), st.gv.Load()) // unbounded: cannot fail
		}
	}
	for _, r := range ec.Replaced {
		stale[r.Old] = true
	}
	if len(stale) == 0 {
		return nil
	}
	vt.footprints.Range(func(k, v any) bool {
		for _, mp := range v.(*footprint).mps {
			if stale[mp] {
				vt.footprints.Delete(k)
				break
			}
		}
		return true
	})
	return nil
}

// footprint is a Spec compiled against one versionTable: for each
// declared microprotocol, in Spec.MPs() order, its dense slot, resolved
// mpState, visit bound (0 when the spec carries none), rule-1 delta,
// and whether the spec can only read it. lockOrder lists the footprint
// positions in ascending slot order — the slow path's lock acquisition
// discipline, free because it is compiled once per spec. Route specs
// additionally carry a compiled vertex-indexed view of the routing
// graph. A footprint is immutable once published; Spawn reuses it for
// every computation of the spec.
type footprint struct {
	mps       []*core.Microprotocol
	slots     []int
	states    []*mpState
	bounds    []uint64
	deltas    []uint64
	reader    []bool
	lockOrder []int

	route *routeInfo // nil for non-route specs
}

// pos returns mp's position in the footprint, or -1. Specs are small, so
// a linear scan beats hashing.
func (fp *footprint) pos(mp *core.Microprotocol) int {
	for i, m := range fp.mps {
		if m == mp {
			return i
		}
	}
	return -1
}

// routeInfo is the dense compilation of a RouteGraph: vertices are
// numbered, edges become index adjacency lists, and each footprint
// position knows its microprotocol's vertices. hpos is read-only after
// compilation, so concurrent lookups need no lock.
type routeInfo struct {
	hpos    map[*core.Handler]int
	succs   [][]int
	isRoot  []bool
	mpVerts [][]int // footprint position → vertex indices
}

// footprint returns (compiling on first use) spec's footprint.
func (vt *versionTable) footprint(spec *core.Spec) *footprint {
	if fp, ok := vt.footprints.Load(spec); ok {
		return fp.(*footprint)
	}
	actual, _ := vt.footprints.LoadOrStore(spec, vt.compile(spec))
	return actual.(*footprint)
}

func (vt *versionTable) compile(spec *core.Spec) *footprint {
	mps := spec.MPs()
	fp := &footprint{
		mps:       mps,
		slots:     make([]int, len(mps)),
		states:    make([]*mpState, len(mps)),
		bounds:    make([]uint64, len(mps)),
		deltas:    make([]uint64, len(mps)),
		reader:    make([]bool, len(mps)),
		lockOrder: make([]int, len(mps)),
	}
	vt.mu.Lock()
	for i, mp := range mps {
		slot := vt.slotLocked(mp)
		fp.slots[i] = slot
		fp.states[i] = vt.states[slot]
	}
	vt.mu.Unlock()
	for i, mp := range mps {
		if b, ok := spec.Bound(mp); ok && b > 0 {
			fp.bounds[i] = uint64(b)
		}
		fp.deltas[i] = 1
		if vt.useBounds && fp.bounds[i] > 0 {
			fp.deltas[i] = fp.bounds[i]
		}
		fp.reader[i] = readerOf(spec, mp)
		fp.lockOrder[i] = i
	}
	sort.Slice(fp.lockOrder, func(a, b int) bool {
		return fp.slots[fp.lockOrder[a]] < fp.slots[fp.lockOrder[b]]
	})
	if g := spec.Graph(); g != nil {
		fp.route = compileRoute(g, fp)
	}
	return fp
}

func compileRoute(g *core.RouteGraph, fp *footprint) *routeInfo {
	vs := g.Vertices()
	r := &routeInfo{
		hpos:    make(map[*core.Handler]int, len(vs)),
		succs:   make([][]int, len(vs)),
		isRoot:  make([]bool, len(vs)),
		mpVerts: make([][]int, len(fp.mps)),
	}
	for i, h := range vs {
		r.hpos[h] = i
	}
	for i, h := range vs {
		r.isRoot[i] = g.IsRoot(h)
		if p := fp.pos(h.MP()); p >= 0 {
			r.mpVerts[p] = append(r.mpVerts[p], i)
		}
		for _, succ := range g.Succs(h) {
			r.succs[i] = append(r.succs[i], r.hpos[succ])
		}
	}
	return r
}
