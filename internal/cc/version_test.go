package cc

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sched"
)

// White-box tests for the deferred-release version machinery shared by the
// VCA* controllers.

func TestMPStateBumpAndWait(t *testing.T) {
	st := newMPState(sched.DefaultBlocker())
	if st.lv.Load() != 0 {
		t.Fatal("initial lv must be 0")
	}
	st.bump()
	st.bump()
	if st.lv.Load() != 2 {
		t.Fatalf("lv = %d", st.lv.Load())
	}
	// waitAtLeast returns immediately once the threshold is reached.
	st.waitAtLeast(context.Background(), 2)
}

func TestMPStateReleaseImmediate(t *testing.T) {
	st := newMPState(sched.DefaultBlocker())
	st.request(0, 3) // lv(0) >= minLv(0): apply now
	if got := st.lv.Load(); got != 3 {
		t.Fatalf("lv = %d, want 3", got)
	}
}

func TestMPStateReleaseDeferredUntilDue(t *testing.T) {
	st := newMPState(sched.DefaultBlocker())
	st.request(2, 5) // not due: lv=0 < 2
	if got := st.lv.Load(); got != 0 {
		t.Fatalf("lv = %d, want 0 (release deferred)", got)
	}
	st.bump() // lv=1
	if got := st.lv.Load(); got != 1 {
		t.Fatalf("lv = %d, want 1", got)
	}
	st.bump() // lv=2: the pending release fires, lv jumps to 5
	if got := st.lv.Load(); got != 5 {
		t.Fatalf("lv = %d, want 5", got)
	}
}

func TestMPStateReleasesApplyInVersionOrder(t *testing.T) {
	st := newMPState(sched.DefaultBlocker())
	// Three computations completing out of spawn order: the queue must
	// chain them 0→1→2→3 regardless of request order.
	st.request(2, 3) // k3
	st.request(1, 2) // k2
	if st.lv.Load() != 0 {
		t.Fatal("nothing due yet")
	}
	st.request(0, 1) // k1: fires and cascades through k2 and k3
	if got := st.lv.Load(); got != 3 {
		t.Fatalf("lv = %d, want 3 after cascade", got)
	}
}

func TestMPStateNeverDowngrades(t *testing.T) {
	st := newMPState(sched.DefaultBlocker())
	st.request(0, 5)
	st.request(0, 2) // stale target below current lv: must be dropped
	if got := st.lv.Load(); got != 5 {
		t.Fatalf("lv = %d, want 5 (no downgrade)", got)
	}
}

func TestMPStateWaitWakesOnRelease(t *testing.T) {
	st := newMPState(sched.DefaultBlocker())
	done := make(chan struct{})
	go func() {
		st.waitAtLeast(context.Background(), 4)
		close(done)
	}()
	st.request(0, 4)
	<-done
}

// TestMPStateTargetedWakeup: a release wakes exactly the waiters whose
// thresholds it satisfies; higher-threshold waiters stay parked.
func TestMPStateTargetedWakeup(t *testing.T) {
	st := newMPState(sched.DefaultBlocker())
	low := make(chan struct{})
	high := make(chan struct{})
	go func() {
		st.waitAtLeast(context.Background(), 1)
		close(low)
	}()
	go func() {
		st.waitAtLeast(context.Background(), 10)
		close(high)
	}()
	// Wait until both goroutines are actually parked.
	for {
		st.mu.Lock()
		n := len(st.waiters)
		st.mu.Unlock()
		if n == 2 {
			break
		}
	}
	st.bump() // lv=1: admits only the low-threshold waiter
	<-low
	select {
	case <-high:
		t.Fatal("high-threshold waiter woken below its threshold")
	default:
	}
	st.request(1, 10) // lv jumps to 10: admits the rest
	<-high
}

// TestMPStateNoChangeNoSignal: a request that leaves lv unchanged must
// not disturb the wait queue.
func TestMPStateNoChangeNoSignal(t *testing.T) {
	st := newMPState(sched.DefaultBlocker())
	st.request(0, 3)
	parked := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(parked)
		st.waitAtLeast(context.Background(), 5)
		close(done)
	}()
	<-parked
	for {
		st.mu.Lock()
		n := len(st.waiters)
		st.mu.Unlock()
		if n == 1 {
			break
		}
	}
	st.request(0, 2) // stale: lv stays 3
	select {
	case <-done:
		t.Fatal("waiter woken although lv did not change")
	default:
	}
	st.request(3, 5)
	<-done
}

// TestMPStateCascadePropertyRandomOrder: any permutation of a chain of
// releases k_i = (i, i+1) ends with lv == n.
func TestMPStateCascadeProperty(t *testing.T) {
	prop := func(perm []int) bool {
		n := len(perm)
		if n == 0 {
			return true
		}
		// Build a permutation of 0..n-1 out of arbitrary ints.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i, v := range perm {
			j := abs(v) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		st := newMPState(sched.DefaultBlocker())
		for _, i := range order {
			st.request(uint64(i), uint64(i+1))
		}
		return st.lv.Load() == uint64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestMPStateConcurrentBumpers(t *testing.T) {
	st := newMPState(sched.DefaultBlocker())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				st.bump()
			}
		}()
	}
	wg.Wait()
	if got := st.lv.Load(); got != 800 {
		t.Fatalf("lv = %d, want 800", got)
	}
}

func TestVersionTableDenseSlots(t *testing.T) {
	vt := newVersionTable()
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	vt.mu.Lock()
	sp := vt.slotLocked(p)
	sq := vt.slotLocked(q)
	again := vt.slotLocked(p)
	vt.mu.Unlock()
	if sp != 0 || sq != 1 || again != sp {
		t.Fatalf("slots = %d, %d, %d; want 0, 1, 0", sp, sq, again)
	}
	if len(vt.states) != 2 {
		t.Fatalf("table sized %d, want 2", len(vt.states))
	}
	if vt.states[sp] == nil || vt.states[sp] == vt.states[sq] {
		t.Fatal("states must be distinct and non-nil")
	}
}

// TestFootprintCompiledOnce: repeated spawns of one spec reuse the same
// compiled footprint, and its arrays mirror the spec.
func TestFootprintCompiledOnce(t *testing.T) {
	vt := newVersionTable()
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	spec := core.AccessBound(map[*core.Microprotocol]int{p: 2, q: 3})
	fp1 := mustFootprint(t, vt, spec)
	fp2 := mustFootprint(t, vt, spec)
	if fp1 != fp2 {
		t.Fatal("footprint must be compiled once per spec")
	}
	if len(fp1.mps) != 2 || len(fp1.slots) != 2 || len(fp1.states) != 2 {
		t.Fatalf("footprint arrays sized %d/%d/%d", len(fp1.mps), len(fp1.slots), len(fp1.states))
	}
	for i, mp := range fp1.mps {
		if fp1.pos(mp) != i {
			t.Fatalf("pos(%s) = %d, want %d", mp.Name(), fp1.pos(mp), i)
		}
		want, _ := spec.Bound(mp)
		if fp1.bounds[i] != uint64(want) {
			t.Fatalf("bounds[%d] = %d, want %d", i, fp1.bounds[i], want)
		}
	}
	if fp1.pos(core.NewMicroprotocol("other")) != -1 {
		t.Fatal("pos of undeclared microprotocol must be -1")
	}
}

// --- claim protocol: sharded admission, CAS fast path, group commit
// (DESIGN.md §11) ---

func mustFootprint(t *testing.T, vt *versionTable, spec *core.Spec) *footprint {
	t.Helper()
	return vt.footprint(spec)
}

func mustClaim(t *testing.T, vt *versionTable, fp *footprint, nodes []relNode) {
	t.Helper()
	vt.claim(fp, nodes)
}

func TestClaimFastOnQuiescentSlots(t *testing.T) {
	vt := newVersionTable()
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	fp := mustFootprint(t, vt, core.Access(p, q))
	nodes := make([]relNode, 2)
	mustClaim(t, vt, fp, nodes)
	for i := range nodes {
		if nodes[i].minLv != 0 || nodes[i].target != 1 {
			t.Fatalf("nodes[%d] = %+v, want {0 1}", i, nodes[i])
		}
		if got := fp.states[i].gv.Load(); got != 1 {
			t.Fatalf("slot %d gv = %d, want 1", i, got)
		}
	}
	if fast, slow := vt.SpawnStats(); fast != 1 || slow != 0 {
		t.Fatalf("stats fast=%d slow=%d, want 1/0", fast, slow)
	}
}

func TestClaimFallsBackWhenInFlight(t *testing.T) {
	vt := newVersionTable()
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	fp := mustFootprint(t, vt, core.Access(p, q))
	n1 := make([]relNode, 2)
	n2 := make([]relNode, 2)
	mustClaim(t, vt, fp, n1) // quiescent table: fast
	mustClaim(t, vt, fp, n2) // n1 in flight on both slots: ordered-lock slow path
	for i := range n2 {
		if n2[i].minLv != 1 || n2[i].target != 2 {
			t.Fatalf("n2[%d] = %+v, want {1 2} (ordered after n1)", i, n2[i])
		}
	}
	if fast, slow := vt.SpawnStats(); fast != 1 || slow != 1 {
		t.Fatalf("stats fast=%d slow=%d, want 1/1", fast, slow)
	}
	// Releasing both restores quiescence; the next claim is fast again.
	for i := range n1 {
		fp.states[i].requestNode(&n1[i])
	}
	for i := range n2 {
		fp.states[i].requestNode(&n2[i])
	}
	n3 := make([]relNode, 2)
	mustClaim(t, vt, fp, n3)
	if fast, slow := vt.SpawnStats(); fast != 2 || slow != 1 {
		t.Fatalf("stats fast=%d slow=%d, want 2/1", fast, slow)
	}
	if n3[0].target != 3 {
		t.Fatalf("n3 target = %d, want 3", n3[0].target)
	}
}

func TestUnclaimRollsBackUntouchedClaims(t *testing.T) {
	vt := newVersionTable()
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	fp := mustFootprint(t, vt, core.Access(p, q))
	nodes := make([]relNode, 2)
	if !vt.claimFast(fp, nodes) {
		t.Fatal("claimFast on a fresh table must succeed")
	}
	vt.unclaim(fp, nodes, 2)
	for i, st := range fp.states {
		if gv, lv := st.gv.Load(), st.lv.Load(); gv != 0 || lv != 0 {
			t.Fatalf("slot %d after rollback: gv=%d lv=%d, want 0/0", i, gv, lv)
		}
	}
}

// TestUnclaimPhantomWhenBuiltUpon: a fast-path claim another spawn has
// already stacked a version on cannot be CAS-reverted; unclaim retires it
// as a phantom release, keeping the slot's version chain gap-free.
func TestUnclaimPhantomWhenBuiltUpon(t *testing.T) {
	vt := newVersionTable()
	p := core.NewMicroprotocol("p")
	fp := mustFootprint(t, vt, core.Access(p))
	nodes := make([]relNode, 1)
	if !vt.claimFast(fp, nodes) {
		t.Fatal("claimFast on a fresh table must succeed")
	}
	st := fp.states[0]
	st.gv.Add(1) // a concurrent claim builds on top (gv: 1 → 2)
	vt.unclaim(fp, nodes, 1)
	// The rollback CAS (1 → 0) must have failed; the phantom release
	// (minLv 0, target 1) applies immediately, handing the slot to the
	// stacked claim.
	if gv, lv := st.gv.Load(), st.lv.Load(); gv != 2 || lv != 1 {
		t.Fatalf("after phantom: gv=%d lv=%d, want 2/1", gv, lv)
	}
	if ph := st.phantoms.Load(); ph != 1 {
		t.Fatalf("phantom versions = %d, want 1", ph)
	}
	// The stacked claim's own release then quiesces the slot.
	st.request(1, 2)
	if gv, lv := st.gv.Load(), st.lv.Load(); gv != 2 || lv != 2 {
		t.Fatalf("after stacked release: gv=%d lv=%d, want 2/2", gv, lv)
	}
}

// --- epoch-aware admission: install continues replaced slots, retire
// drains and forgets (live reconfiguration, DESIGN.md §15). Refusing
// specs that name a microprotocol outside the pinned epoch is the
// stack's job (core's stale-spec tests). ---

// TestRetireEpochDrainsRemovedSlot: a claim in flight across a removal
// releases normally, RetireEpoch drains the slot to quiescence, footprints
// naming the removed microprotocol leave the cache, and a disjoint spec
// keeps admitting from its cached footprint.
func TestRetireEpochDrainsRemovedSlot(t *testing.T) {
	vt := newVersionTable()
	p := core.NewMicroprotocol("p")
	q := core.NewMicroprotocol("q")
	spec := core.Access(p, q)
	fp := mustFootprint(t, vt, spec)
	held := make([]relNode, 2)
	mustClaim(t, vt, fp, held) // in flight across the removal
	specP := core.Access(p)
	fpP := mustFootprint(t, vt, specP)

	ec := core.EpochChange{Epoch: 2, Removed: []*core.Microprotocol{q}}
	vt.InstallEpoch(ec)
	for i := range held {
		fp.states[i].requestNode(&held[i])
	}
	if err := vt.RetireEpoch(ec); err != nil {
		t.Fatalf("retireEpoch: %v", err)
	}
	st := fp.states[1]
	if g, l := st.gv.Load(), st.lv.Load(); g != l {
		t.Fatalf("removed slot not quiescent after retire: gv=%d lv=%d", g, l)
	}
	if _, ok := vt.footprints.Load(spec); ok {
		t.Fatal("footprint naming a removed microprotocol must leave the cache at retirement")
	}
	if got := mustFootprint(t, vt, specP); got != fpP {
		t.Fatal("a disjoint spec must keep its compiled footprint")
	}
	one := make([]relNode, 1)
	mustClaim(t, vt, fpP, one)
}

// TestInstallEpochReAddResumes: a later epoch re-adding a removed
// microprotocol resumes the slot's version chain where it left off.
func TestInstallEpochReAddResumes(t *testing.T) {
	vt := newVersionTable()
	p := core.NewMicroprotocol("p")
	fp := mustFootprint(t, vt, core.Access(p))
	n1 := make([]relNode, 1)
	mustClaim(t, vt, fp, n1)
	fp.states[0].requestNode(&n1[0])

	removed := core.EpochChange{Epoch: 2, Removed: []*core.Microprotocol{p}}
	vt.InstallEpoch(removed)
	if err := vt.RetireEpoch(removed); err != nil {
		t.Fatalf("retireEpoch: %v", err)
	}
	vt.InstallEpoch(core.EpochChange{Epoch: 3, Added: []*core.Microprotocol{p}})

	fp2 := mustFootprint(t, vt, core.Access(p))
	n2 := make([]relNode, 1)
	mustClaim(t, vt, fp2, n2)
	if n2[0].minLv != 1 || n2[0].target != 2 {
		t.Fatalf("re-added slot claim = %+v, want {1 2} (chain resumed)", n2[0])
	}
}

// TestInstallEpochReplaceContinuesSlot: a replacement microprotocol
// inherits its predecessor's version slot, so a claim through the new
// identity serializes behind an in-flight claim still holding the old
// one — the version chain continues across the swap instead of forking
// into an independent quiescent slot. No drain is owed for the pair, and
// retirement drops the old identity's footprint.
func TestInstallEpochReplaceContinuesSlot(t *testing.T) {
	vt := newVersionTable()
	p := core.NewMicroprotocol("p")
	specP := core.Access(p)
	fp := mustFootprint(t, vt, specP)
	n1 := make([]relNode, 1)
	mustClaim(t, vt, fp, n1) // in-flight: holds version 1

	p2 := core.NewMicroprotocol("p2")
	ec := core.EpochChange{Epoch: 2, Replaced: []core.ReplacedMP{{Old: p, New: p2}}}
	vt.InstallEpoch(ec)

	// The new identity continues the chain: its claim lands behind the
	// in-flight version 1, not at a fresh quiescent slot.
	fp2 := mustFootprint(t, vt, core.Access(p2))
	if fp2.states[0] != fp.states[0] {
		t.Fatal("replacement must share its predecessor's version slot")
	}
	n2 := make([]relNode, 1)
	mustClaim(t, vt, fp2, n2)
	if n2[0].minLv != 1 || n2[0].target != 2 {
		t.Fatalf("replacement claim = %+v, want {1 2} (chain continued)", n2[0])
	}
	// No drain owed: the slot lives on under the new identity even while
	// both claims are still outstanding.
	if err := vt.RetireEpoch(ec); err != nil {
		t.Fatalf("retireEpoch: %v", err)
	}
	if _, ok := vt.footprints.Load(specP); ok {
		t.Fatal("footprint naming the replaced-out microprotocol must leave the cache at retirement")
	}
	fp.states[0].requestNode(&n1[0])
	fp2.states[0].requestNode(&n2[0])
	if lv, gv := fp2.states[0].lv.Load(), fp2.states[0].gv.Load(); lv != 2 || gv != 2 {
		t.Fatalf("slot lv/gv = %d/%d after releases, want 2/2", lv, gv)
	}
	// A replaced microprotocol the table never saw still hands on its slot.
	q, q2 := core.NewMicroprotocol("q"), core.NewMicroprotocol("q2")
	vt.InstallEpoch(core.EpochChange{Epoch: 3, Replaced: []core.ReplacedMP{{Old: q, New: q2}}})
	if mustFootprint(t, vt, core.Access(q)).states[0] != mustFootprint(t, vt, core.Access(q2)).states[0] {
		t.Fatal("replacement of a never-claimed microprotocol must share its slot")
	}
}

// TestDrainBatchesGroupCommit: releases pushed while another thread holds
// the drain flag pile up on the stack, and one drain folds the whole
// batch — applying the cascade and advancing lv once.
func TestDrainBatchesGroupCommit(t *testing.T) {
	st := newMPState(sched.DefaultBlocker())
	if !st.draining.CompareAndSwap(0, 1) {
		t.Fatal("fresh state must not be draining")
	}
	// Pushers lose the drain flag and return; nothing applies yet.
	st.request(2, 3)
	st.request(0, 1)
	st.request(1, 2)
	if got := st.lv.Load(); got != 0 {
		t.Fatalf("lv = %d while drain flag held elsewhere, want 0", got)
	}
	st.draining.Store(0)
	st.drain() // the whole batch folds in one group commit
	if got := st.lv.Load(); got != 3 {
		t.Fatalf("lv = %d after batch drain, want 3", got)
	}
	if st.relq.Load() != nil {
		t.Fatal("release stack must be empty after drain")
	}
}

// TestContendedAdmissionAllocBudget asserts that a computation whose
// rule-2 admission waits costs the allocations of one that does not: the
// wait's yield and re-read allocate nothing, the park takes a pooled
// waiter onto a reused queue, and the releaser's handoff is a yield. Each
// contended iteration spawns behind the previous computation, which
// another goroutine completes only once the new one has yielded and
// parked, so every iteration takes the whole wait path.
func TestContendedAdmissionAllocBudget(t *testing.T) {
	c := NewVCABasic()
	mp := core.NewMicroprotocol("hot")
	h := mp.AddHandler("h", func(*core.Context, core.Message) error { return nil })
	spec := core.Access(mp)
	ctx := context.Background()
	spawn := func() core.Token {
		tok, err := c.Spawn(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	run := func(tok core.Token) {
		if err := c.Request(tok, nil, h); err != nil {
			t.Fatal(err)
		}
		if err := c.Enter(ctx, tok, nil, h); err != nil {
			t.Fatal(err)
		}
		c.Exit(tok, h)
		c.RootReturned(tok)
	}
	uncontended := testing.AllocsPerRun(200, func() {
		tok := spawn()
		run(tok)
		c.Complete(tok)
	})

	st := c.footprint(spec).states[0]
	release, done := make(chan core.Token), make(chan struct{})
	go func() {
		for tok := range release {
			for parked := false; !parked; {
				runtime.Gosched()
				st.mu.Lock()
				parked = len(st.waiters) > 0
				st.mu.Unlock()
			}
			c.Complete(tok)
			done <- struct{}{}
		}
	}()
	prev := spawn()
	run(prev)
	contended := testing.AllocsPerRun(200, func() {
		tok := spawn() // claims behind prev, still in flight
		release <- prev
		run(tok) // yields, parks, and is woken by the other goroutine's Complete
		<-done
		prev = tok
	})
	close(release)
	c.Complete(prev)
	if contended > uncontended {
		t.Errorf("contended spawn→enter→complete: %.2f allocs/op, uncontended %.2f", contended, uncontended)
	}
}
