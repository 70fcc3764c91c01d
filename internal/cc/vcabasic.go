package cc

// VCABasic is the Basic Version-Counting Algorithm of paper §5.1,
// implementing the plain "isolated M e" construct. It is the
// version-counting kernel with no rule overridden.
//
// Rule 1: spawning a computation k atomically increments the global
// version counter gv of every declared microprotocol and snapshots the
// results as k's private versions pv.
//
// Rule 2: k may call a handler of microprotocol p only when
// pv[p]−1 == lv[p], i.e. every earlier-spawned computation that declared p
// has released it.
//
// Rule 3: when k completes, each declared p's local version is upgraded to
// pv[p] — in spawn order, via the deferred-release queue.
type VCABasic struct{ vca }

// NewVCABasic creates a controller enforcing the basic version-counting
// algorithm. The controller holds per-stack state; do not share it.
func NewVCABasic() *VCABasic { return &VCABasic{vca{newVersionTable()}} }

// Name implements core.Controller.
func (c *VCABasic) Name() string { return "vca-basic" }
