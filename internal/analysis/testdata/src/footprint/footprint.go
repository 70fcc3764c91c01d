// Package footprint is golden testdata for the footprint check: a
// three-stage trigger chain e0 → A.head → e1 → B.mid → e2 → C.sink,
// spawned under specs that do and do not cover the chain, and handlers
// whose Emits do and do not declare what their bodies trigger.
package footprint

import "repro/internal/core"

type proto struct {
	stack         *core.Stack
	e0, e1, e2    *core.EventType
	mpA, mpB, mpC *core.Microprotocol
}

func build(ctrl core.Controller) *proto {
	p := &proto{}
	p.stack = core.NewStack(ctrl)
	p.mpA = core.NewMicroprotocol("A")
	p.mpB = core.NewMicroprotocol("B")
	p.mpC = core.NewMicroprotocol("C")
	p.e0 = core.NewEventType("e0")
	p.e1 = core.NewEventType("e1")
	p.e2 = core.NewEventType("e2")

	hA := p.mpA.AddHandler("head", func(ctx *core.Context, msg core.Message) error {
		return ctx.Trigger(p.e1, msg)
	})
	// B forwards through a helper, so the walk must bind the helper's
	// parameter to the caller's argument to see e2.
	hB := p.mpB.AddHandler("mid", func(ctx *core.Context, msg core.Message) error {
		return emit(ctx, p.e2, msg)
	})
	hC := p.mpC.AddHandler("sink", func(ctx *core.Context, msg core.Message) error {
		return nil
	})

	p.stack.Register(p.mpA, p.mpB, p.mpC)
	p.stack.Bind(p.e0, hA)
	p.stack.Bind(p.e1, hB)
	p.stack.Bind(p.e2, hC)
	return p
}

func emit(ctx *core.Context, ev *core.EventType, msg core.Message) error {
	return ctx.Trigger(ev, msg) // want `handler E\.third triggers f1, which its Emits does not declare`
}

// runShort under-declares: the chain reaches C.sink but the spec stops
// at B.
func (p *proto) runShort() error {
	return p.stack.External(core.Access(p.mpA, p.mpB), p.e0, "m") // want `reaches handler C\.sink but microprotocol C is not in its declared spec \[A B\]`
}

// runFull declares the whole chain: clean.
func (p *proto) runFull() error {
	return p.stack.External(core.Access(p.mpA, p.mpB, p.mpC), p.e0, "m")
}

// runIso spawns from a root closure whose trigger reaches B and,
// transitively, C — neither declared.
func (p *proto) runIso() error {
	return p.stack.Isolated(core.Access(p.mpA), func(ctx *core.Context) error { // want `reaches handler B\.mid but microprotocol B is not in its declared spec \[A\]` `reaches handler C\.sink but microprotocol C is not in its declared spec \[A\]`
		return ctx.Trigger(p.e1, nil)
	})
}

// runDynamic builds its spec at runtime: statically unresolvable, so
// the check leaves enforcement to the controller.
func (p *proto) runDynamic(mps []*core.Microprotocol) error {
	return p.stack.External(core.Access(mps...), p.e0, "m")
}

// declared is the Emits half: each handler declaring Emits must declare
// every event its body triggers, directly or through a helper.
func declared() {
	d, e := core.NewMicroprotocol("D"), core.NewMicroprotocol("E")
	f1, f2 := core.NewEventType("f1"), core.NewEventType("f2")
	d.AddHandler("first", func(ctx *core.Context, msg core.Message) error {
		if err := ctx.Trigger(f1, msg); err != nil {
			return err
		}
		return ctx.TriggerAll(f2, msg) // want `handler D\.first triggers f2, which its Emits does not declare`
	}).Emits(f1)
	e.AddHandler("second", func(ctx *core.Context, msg core.Message) error {
		return emit(ctx, f2, msg) // declared through the helper's parameter: clean
	}).Emits(f2)
	e.AddHandler("third", func(ctx *core.Context, msg core.Message) error {
		return emit(ctx, f1, msg)
	}).Emits()
}

// layer reads its events from fields set by its constructor's caller: the
// values do not resolve, so events match by the field they are read from.
type layer struct {
	mp       *core.Microprotocol
	down, up *core.EventType
}

func newLayer(down, up *core.EventType) *layer {
	l := &layer{mp: core.NewMicroprotocol("L"), down: down, up: up}
	l.mp.AddHandler("send", func(ctx *core.Context, msg core.Message) error {
		return ctx.Trigger(l.down, msg)
	}).Emits(l.down)
	l.mp.AddHandler("recv", func(ctx *core.Context, msg core.Message) error {
		return ctx.Trigger(l.up, msg) // want `handler L\.recv triggers l\.up, which its Emits does not declare`
	}).Emits()
	return l
}
