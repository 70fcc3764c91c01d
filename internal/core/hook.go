package core

// YieldPoint identifies a framework-level scheduling decision point — a
// place where, under a deterministic test scheduler, control may switch
// to another computation thread. The production runtime has no scheduler
// attached (Stack.hook is nil) and every point compiles down to one
// predictable nil-check branch.
type YieldPoint uint8

// Yield points, in the order they occur for one computation.
const (
	// YieldSpawn precedes the controller's Spawn call (and each retry
	// attempt under a rollback controller).
	YieldSpawn YieldPoint = iota
	// YieldEnter precedes the controller's Enter call of a synchronous
	// handler dispatch.
	YieldEnter
	// YieldExit follows the controller's Exit call — the moment a
	// handler's resources may have been released to other computations.
	YieldExit
	// YieldComplete precedes the controller's Complete call, so a
	// scheduler can delay a computation's final release arbitrarily.
	YieldComplete
	// YieldReconfigure precedes a Reconfigure's edit-and-install section,
	// so a deterministic scheduler can interleave epoch swaps with the
	// spawn/release points of running computations, and the chaos harness
	// can fault a reconfiguration before it commits.
	YieldReconfigure
	// YieldInstall sits inside a reconfiguration's install, after the
	// controller's InstallEpoch and before the new epoch is published, so
	// a deterministic scheduler can run spawns in the window where the
	// controller already knows the successor and no computation can pin
	// it yet. The install has committed: a fault injected here is dropped.
	YieldInstall
)

// Hook is the deterministic-scheduler integration point: when attached
// with WithHook, every computation thread the stack creates is announced
// to the hook, thread joins are routed through it, and the dispatch path
// yields at the points above. Package sched's Scheduler implements it.
//
// The contract mirrors the goroutines the stack actually spawns:
//
//	task := TaskSpawn(group)   // in the spawning thread, before `go`
//	go func() {
//	    TaskBegin(task)        // first call of the new thread; may block
//	    ... thread body ...
//	    TaskEnd(task)          // last call of the thread
//	}()
//	...
//	WaitTasks(group)           // blocks until every task of group ended
//
// Group keys are opaque identities (the stack passes the *Computation for
// asynchronous handler executions and the *invocation for forks); a group
// key may be reused once WaitTasks for it has returned.
//
// Restriction: with a hook attached, every thread that spawns or joins
// computations must itself be a thread the hook knows about (for package
// sched: started via Scheduler.Go or one of the announced tasks).
// IsolatedAsync is therefore unsupported under a hook — drive
// computations from scheduler tasks instead.
type Hook interface {
	TaskSpawn(group any) any
	TaskBegin(task any)
	TaskEnd(task any)
	WaitTasks(group any)
	Yield(p YieldPoint)
}

// WithHook attaches a scheduling hook to the stack (test-only; see Hook).
func WithHook(h Hook) StackOption {
	return func(s *Stack) { s.hook = h }
}
