package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Fig1 is the protocol of the paper's Figure 1: external event a0 triggers
// handler P, which raises a1 (handler R) then a2 (handler S); b0 → Q → b1
// (R), b2 (S). R and S are shared. Experiment E1 runs its two external
// events concurrently many times and classifies the recorded runs as the
// paper does: serial (r1-like), concurrent-yet-isolated (r2-like), or
// isolation violations (r3-like).
type Fig1 struct {
	stack        *core.Stack
	rec          *trace.Recorder
	a0, b0       *core.EventType
	specA, specB *core.Spec
}

// NewFig1 builds the Figure 1 protocol under a controller variant, with
// up to maxWork of random simulated work per handler (work makes the
// interleavings the experiment is about actually occur).
func NewFig1(v Variant, maxWork time.Duration) *Fig1 {
	f := &Fig1{rec: trace.NewRecorder()}
	f.stack = core.NewStack(v.New(), core.WithTracer(f.rec), core.WithName("fig1"))

	work := func() {
		if maxWork > 0 {
			time.Sleep(time.Duration(rand.Int63n(int64(maxWork))))
		}
	}

	mpP := core.NewMicroprotocol("P")
	mpQ := core.NewMicroprotocol("Q")
	mpR := core.NewMicroprotocol("R")
	mpS := core.NewMicroprotocol("S")

	f.a0, f.b0 = core.NewEventType("a0"), core.NewEventType("b0")
	a1, b1 := core.NewEventType("a1"), core.NewEventType("b1")
	a2, b2 := core.NewEventType("a2"), core.NewEventType("b2")

	hR := mpR.AddHandler("R", func(*core.Context, core.Message) error { work(); return nil }).Emits()
	hS := mpS.AddHandler("S", func(*core.Context, core.Message) error { work(); return nil }).Emits()
	hP := mpP.AddHandler("P", func(ctx *core.Context, msg core.Message) error {
		work()
		if err := ctx.Trigger(a1, msg); err != nil {
			return err
		}
		work()
		return ctx.Trigger(a2, msg)
	}).Emits(a1, a2)
	hQ := mpQ.AddHandler("Q", func(ctx *core.Context, msg core.Message) error {
		work()
		if err := ctx.Trigger(b1, msg); err != nil {
			return err
		}
		work()
		return ctx.Trigger(b2, msg)
	}).Emits(b1, b2)

	f.stack.Register(mpP, mpQ, mpR, mpS)
	f.stack.Bind(f.a0, hP)
	f.stack.Bind(f.b0, hQ)
	f.stack.Bind(a1, hR)
	f.stack.Bind(b1, hR)
	f.stack.Bind(a2, hS)
	f.stack.Bind(b2, hS)

	// Each external event's spec is derived from the handlers' Emits: M,
	// one visit per microprotocol and the route P → R, P → S (Q for b0).
	f.specA = core.Derive(1, f.a0)
	f.specB = core.Derive(1, f.b0)
	return f
}

// RunOnce fires a0 and b0 concurrently and reports the run's class.
func (f *Fig1) RunOnce() *trace.Report {
	done := make(chan error, 2)
	go func() { done <- f.stack.External(f.specA, f.a0, "m") }()
	go func() { done <- f.stack.External(f.specB, f.b0, "m") }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			panic(fmt.Sprintf("fig1: %v", err))
		}
	}
	rep := f.rec.Check()
	f.rec.Reset()
	return rep
}

// E1Admissibility classifies `trials` concurrent executions of Figure 1's
// external events per controller — reproducing the paper's §2 run
// analysis (r1 admissible everywhere, r2 only under SAMOA, r3 only under
// Cactus-style no-control).
func E1Admissibility(trials int, maxWork time.Duration) *Table {
	t := &Table{
		ID:     "E1",
		Title:  fmt.Sprintf("Figure 1 run admissibility (%d trials, ≤%v work/handler)", trials, maxWork),
		Header: []string{"controller", "serial (r1-like)", "concurrent-isolated (r2-like)", "violations (r3-like)"},
	}
	for _, v := range PaperVariants() {
		f := NewFig1(v, maxWork)
		serial, concurrent, violations := 0, 0, 0
		for i := 0; i < trials; i++ {
			rep := f.RunOnce()
			switch {
			case !rep.Serializable:
				violations++
			case rep.Serial:
				serial++
			default:
				concurrent++
			}
		}
		t.AddRow(v.Name, fmt.Sprint(serial), fmt.Sprint(concurrent), fmt.Sprint(violations))
	}
	t.Note("expected: Serial admits only r1-like; VCA* admit r2-like but never r3-like; None admits r3-like (paper §2)")
	return t
}
