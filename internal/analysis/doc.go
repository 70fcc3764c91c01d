// Package analysis is samoa-vet: a stdlib-only static checker for the
// framework's microprotocol isolation and concurrency contracts.
//
// The runtime controllers (internal/cc) enforce the paper's isolation
// property against the Spec a computation *declares* — but nothing at
// runtime validates that the declaration itself is honest. An
// "isolated M e" whose computation reaches a microprotocol outside M is
// rejected only when that path actually executes; a handler annotated
// ReadOnly that writes state silently corrupts VCARW schedules; a
// synchronous Isolated inside a handler deadlocks only under the right
// interleaving. The same gap exists one layer down: the lock-free core
// documents its locking discipline ("written only under mu", "acquire
// spawnMu before mu") in prose that nothing checks. This package
// rejects both kinds of rot at build time.
//
// It is built directly on go/parser, go/ast and go/types (no
// golang.org/x/tools): a Loader type-checks module packages from
// source, model.go lifts each package into an abstract protocol model —
// event types, microprotocols, handlers, binding graph, Spec literals,
// Isolated roots — and eight Analyzer values walk that model (or the
// typed ASTs directly):
//
//	footprint   Isolated/External roots that transitively reach a
//	            handler of a microprotocol absent from the declared Spec,
//	            and handlers triggering an event their Emits omits
//	readonly    ReadOnly() handlers whose bodies write captured state
//	nestediso   synchronous Isolated/External inside a computation
//	            (the documented deadlock; use IsolatedAsync)
//	blocking    raw time.Sleep, channel ops, sync blocking or bare go
//	            statements inside handlers, controllers or transport
//	            pump goroutines, bypassing the sched.Blocker seam and
//	            hiding schedules from the explorer
//	routecycle  cycles in core.Route graph literals (legal, but they
//	            disable VCAroute's early release — worth knowing)
//	lockorder   lock-order inversions: two mutexes acquired in opposite
//	            orders on different static paths (interprocedural over
//	            static callees; the for-range-over-lockOrder idiom is
//	            recognized as ordered by construction)
//	atomics     mixed atomic/plain access to the same struct field, and
//	            violations of a declared //samoa:guard <mu> protocol:
//	            atomic loads stay lock-free, but mutations and plain
//	            accesses must hold the guard (or live in a *Locked
//	            helper); also CAS retry loops whose compare value is
//	            re-read non-atomically
//	ignores     audits every //samoa:ignore: it must carry a rationale
//	            after an em-dash, name only known checks, and still
//	            suppress a live finding — stale suppressions are flagged
//	            for deletion
//
// All value tracking is conservative: a Spec, event type, handler or
// lock identity the extractor cannot resolve to a single static value
// is skipped, never guessed, so every diagnostic is backed by a
// concrete static path. Deliberate exceptions are silenced in source
// with
//
//	//samoa:ignore <check>[,<check>...] — rationale
//
// on the flagged line or the line above it; the rationale (after an
// em-dash or "--") is mandatory, enforced by the ignores check. Field
// locking protocols are declared next to the field with
//
//	//samoa:guard <mutexFieldName> — optional note
//
// naming a sibling sync.Mutex/RWMutex field, which turns the comment
// from documentation into a checked contract.
package analysis
