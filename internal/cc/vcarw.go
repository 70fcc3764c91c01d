package cc

import (
	"context"

	"repro/internal/core"
)

// VCARW implements the paper's §7 future-work extension: "introduce
// different types of handlers (e.g. read-only, read-and-write) and several
// levels of isolation". Handlers declared with core.ReadOnly() mark what a
// computation's use of a microprotocol can be; a computation whose
// declared handlers on a microprotocol are all read-only is admitted as a
// *reader* of it.
//
// Versioning is the kernel's, with one twist in rule 1: consecutive
// reader spawns with no intervening writer share one version of the
// microprotocol — they hold it concurrently, because read-only executions
// commute, and the shared version keeps the equivalent serial order
// well-defined (readers of a group may be serialized in any order among
// themselves). The group's local-version upgrade happens when its last
// member completes. Writers take fresh versions and serialize exactly as
// in VCAbasic.
//
// The overrides are the reader-group rule 1 in Spawn, the read-only
// check in Request, and the last-member release in Complete. A reader
// computation that calls a non-read-only handler gets a
// ReadOnlyViolationError in the calling thread — the annotation is
// enforced, not trusted. Whether a spec reads or writes each
// microprotocol is spec-static, so it is computed once at footprint
// compilation, not per spawn.
//
// Contention-wise, VCARW shards its group bookkeeping by slot (each
// mpState carries its own rwState, guarded by the slot's spawnMu) but
// takes no lock-free fast path: rule 1 here is not a pure counter
// increment — joining or closing a reader group mutates lastVer/lastRO/
// refs, which a CAS on gv cannot publish atomically. Disjoint spawns
// still scale, because they touch disjoint spawnMu locks.
type VCARW struct{ vca }

// rwState is one slot's reader-group bookkeeping, hanging off the slot's
// mpState and guarded by its spawnMu.
type rwState struct {
	lastVer uint64
	lastRO  bool
	refs    map[uint64]int // open group / writer refcounts per version
}

// NewVCARW creates the read/write-aware versioning controller.
func NewVCARW() *VCARW { return &VCARW{vca{newVersionTable()}} }

// Name implements core.Controller.
func (c *VCARW) Name() string { return "vca-rw" }

// readerOf reports whether a computation with this spec can only read mp:
// every handler of mp it may call is declared read-only. Route specs are
// judged by their graph vertices, other specs by all of mp's handlers.
func readerOf(spec *core.Spec, mp *core.Microprotocol) bool {
	if g := spec.Graph(); g != nil {
		any := false
		for _, h := range g.Vertices() {
			if h.MP() == mp {
				any = true
				if !h.IsReadOnly() {
					return false
				}
			}
		}
		return any
	}
	hs := mp.Handlers()
	if len(hs) == 0 {
		return false
	}
	for _, h := range hs {
		if !h.IsReadOnly() {
			return false
		}
	}
	return true
}

// Spawn implements rule 1 with reader-group sharing: hold every declared
// slot's spawnMu (footprint.lockSlots, the same discipline as
// versionTable.claimSlow), then per slot either join the open reader
// group or take a fresh version. It never blocks on admission, so the
// context is not consulted.
func (c *VCARW) Spawn(_ context.Context, spec *core.Spec) (core.Token, error) {
	fp := c.footprint(spec)
	t := &vcaToken{fp: fp, nodes: make([]relNode, len(fp.slots))}
	fp.lockSlots()
	for i, st := range fp.states {
		pv := st.rwClaimLocked(fp.reader[i])
		t.nodes[i] = relNode{minLv: pv - 1, target: pv}
	}
	fp.unlockSlots()
	c.slowSpawns.Add(1)
	return t, nil
}

// rwClaimLocked is rule 1 on one slot: a reader joins the open reader
// group, if any; everyone else takes a fresh version. It returns the
// private version. Callers hold st.spawnMu.
func (st *mpState) rwClaimLocked(reader bool) uint64 {
	rw := st.rw
	if rw == nil {
		rw = &rwState{refs: make(map[uint64]int)}
		st.rw = rw
	}
	if reader && rw.lastRO && rw.refs[rw.lastVer] > 0 {
		rw.refs[rw.lastVer]++
		return rw.lastVer
	}
	pv := st.gv.Add(1)
	rw.lastVer, rw.lastRO = pv, reader
	rw.refs[pv] = 1
	return pv
}

// Request validates declaration and enforces the read-only annotation.
// Rule 2 is the kernel's Enter: every member of a reader group satisfies
// it simultaneously, since they share the private version (and hence
// the claim's recorded minLv threshold).
func (c *VCARW) Request(t core.Token, _, h *core.Handler) error {
	tok := t.(*vcaToken)
	i, err := tok.pos(h)
	if err != nil {
		return err
	}
	if tok.fp.reader[i] && !h.IsReadOnly() {
		return &core.ReadOnlyViolationError{MP: h.MP().Name(), Handler: h.Name()}
	}
	return nil
}

// Complete implements rule 3; a reader group's upgrade fires when its
// last member completes, pushing that member's embedded node. Group
// members share (minLv, target), so which member's node carries the
// release is immaterial.
func (c *VCARW) Complete(t core.Token) {
	tok := t.(*vcaToken)
	for i, st := range tok.fp.states {
		pv := tok.nodes[i].target
		st.spawnMu.Lock()
		rw := st.rw
		rw.refs[pv]--
		last := rw.refs[pv] == 0
		if last {
			delete(rw.refs, pv)
		}
		st.spawnMu.Unlock()
		if last {
			st.requestNode(&tok.nodes[i])
		}
	}
}
