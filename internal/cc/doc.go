// Package cc provides the concurrency-control algorithms of the SAMOA
// runtime (paper §5) plus the baselines the paper compares against and the
// §7 future-work extensions.
//
// Algorithms from the paper:
//
//   - VCABasic (§5.1) — the basic version-counting algorithm behind
//     "isolated M e". A computation gets a private version per declared
//     microprotocol at spawn; a handler call is admitted only when the
//     private version is exactly one ahead of the microprotocol's local
//     version; completions upgrade local versions in spawn order.
//   - VCABound (§5.2) — "isolated bound M e". Global counters advance by
//     the declared least upper bound; handler completions bump local
//     versions (rule 4), so a computation that exhausts its bound on a
//     microprotocol releases it to successors before completing.
//   - VCARoute (§5.3) — "isolated route M e". A per-computation routing
//     graph of handler calls; microprotocols whose handlers are all
//     inactive and unreachable from active handlers are released early
//     (rule 4b).
//
// Baselines:
//
//   - Serial — the Appia model: computations never overlap (one at a
//     time). Trivially isolating, minimally concurrent.
//   - None — the Cactus model: no runtime control; the programmer is on
//     their own. Not isolating; used to demonstrate the races SAMOA
//     prevents.
//
// Extensions (paper §7):
//
//   - VCARW — isolation levels by handler kind: computations whose
//     declared use of a microprotocol is read-only share it with other
//     readers; writers serialize as in VCABasic.
//
// The four VCA* controllers are one version-counting kernel (the
// unexported vca: rule 1 at Spawn, the declared-set check, rule 2 at
// Enter, rule 3 at Complete, plus SetBlocker, SpawnStats and the
// core.Reconfigurer seam) that each embeds. VCABasic overrides nothing;
// VCABound overrides Spawn (bound validation), Request (the visit
// budget) and Exit (rule 4's bump); VCARoute overrides Request (the
// route check) and Exit, RootReturned and Complete (the rule-4(b)
// scan); VCARW overrides Spawn (reader groups), Request (the read-only
// check) and Complete (the last member releases).
//
// Every version-counting controller is deadlock-free: a computation
// only ever waits for computations holding lower versions, so the
// wait-for graph is acyclic as long as any two conflicting spawns get
// their versions in the same relative order on every slot they share.
// The lock-free fast path claims only quiescent slots (lv == gv — no
// conflicting computation in flight to order against), and the slow
// path holds every declared slot's spawnMu, taken in the footprint's
// compiled ascending-slot order, across all of its increments, which
// totally orders conflicting slow-path claims without lock-order
// deadlocks. Controllers hold per-stack state; do not share one across
// stacks.
//
// The stack decides against each computation's pinned epoch which
// microprotocols it may touch, so the version tables keep no removal
// markers: see versionTable.InstallEpoch and RetireEpoch.
package cc
