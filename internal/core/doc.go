// Package core implements the SAMOA programming model: protocols composed
// of microprotocols whose event handlers communicate through typed events,
// executed inside computations that the runtime keeps isolated.
//
// The model follows "SAMOA: Framework for Synchronisation Augmented
// Microprotocol Approach" (Wojciechowski, Rütti, Schiper; IPDPS 2004):
//
//   - A Microprotocol groups related Handlers that share the
//     microprotocol's local state. Handlers are the only way that state is
//     (supposed to be) accessed.
//   - An EventType is a first-class value. Handlers are bound to event
//     types on a Stack; issuing an event of a type requests the execution
//     of every handler bound to it.
//   - A Computation is the set of all handler executions causally
//     dependent on one external event. Computations are spawned with
//     Stack.Isolated, the Go rendering of the paper's "isolated M e"
//     construct.
//   - A Controller (see package cc) decides when a computation may call a
//     handler, so that every concurrent execution satisfies the isolation
//     property: it is equivalent to some serial execution of the
//     computations.
//
// Handlers issue events with Context.Trigger (synchronous, exactly one
// bound handler), Context.TriggerAll (synchronous, all bound handlers),
// and their asynchronous counterparts. Context.Fork adds a thread to the
// current computation.
//
// A computation's spec declares the microprotocols it may touch: written
// out (Access, AccessBound, Route) or derived (Derive) from the events
// each handler Emits. Either way it is decided against the configuration
// epoch the computation pins: a derived spec resolves to that epoch's
// bindings, and a written one naming a microprotocol outside the epoch is
// refused with a ReconfiguredError before the controller sees it.
//
// Binding is static, as in the paper: all Bind calls must precede the
// first Isolated call on a stack. Stack.Reconfigure implements the
// paper's future-work extension of dynamic rebinding: it installs a
// successor epoch on a live stack (Epoch.Rebind, Replace, …).
package core
