// Command samoa-trace runs a workload under a chosen concurrency
// controller, records the execution, and prints the run in the paper's
// notation — the list of (event, handler) pairs (§2) — together with the
// isolation checker's verdict. It is the debugging loupe for the
// framework: point it at a controller and watch which interleavings it
// admits.
//
// Usage:
//
//	samoa-trace -controller vca-basic -comps 4 -mps 3 -len 4 -seed 7
//	samoa-trace -controller none -fig1     # the paper's Figure 1 protocol
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/trace"
)

func main() {
	ctrlName := flag.String("controller", "vca-basic", "none|serial|vca-basic|vca-bound|vca-route|vca-rw|wait-die")
	comps := flag.Int("comps", 4, "number of concurrent computations")
	mps := flag.Int("mps", 3, "number of microprotocols")
	scriptLen := flag.Int("len", 4, "visits per computation")
	seed := flag.Int64("seed", 1, "workload seed")
	fig1 := flag.Bool("fig1", false, "run the paper's Figure 1 protocol instead")
	dot := flag.Bool("dot", false, "also print the conflict graph in Graphviz DOT")
	flag.Parse()
	dotOut = *dot

	v, ok := bench.VariantByName(*ctrlName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown controller %q\n", *ctrlName)
		os.Exit(2)
	}

	if *fig1 {
		runFig1(v)
		return
	}
	runRandom(v, *comps, *mps, *scriptLen, *seed)
}

func runFig1(v bench.Variant) {
	f := bench.NewFig1(v, 100*time.Microsecond)
	rep := f.RunOnce()
	fmt.Printf("controller %s, Figure 1 (events a0, b0 concurrent):\n", v.Name)
	verdict(rep)
}

func runRandom(v bench.Variant, comps, mps, scriptLen int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rec := trace.NewRecorder()
	stack := core.NewStack(v.New(), core.WithTracer(rec))

	protos := make([]*core.Microprotocol, mps)
	events := make([]*core.EventType, mps)
	handlers := make([]*core.Handler, mps)
	for i := 0; i < mps; i++ {
		i := i
		protos[i] = core.NewMicroprotocol(fmt.Sprintf("P%d", i))
		events[i] = core.NewEventType(fmt.Sprintf("e%d", i))
		handlers[i] = protos[i].AddHandler("h", func(ctx *core.Context, msg core.Message) error {
			time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond) //samoa:ignore blocking — simulated handler work: the trace driver wants wall-clock interleavings, not explorability
			rest := msg.([]int)
			if len(rest) > 0 {
				return ctx.Trigger(events[rest[0]], rest[1:])
			}
			return nil
		})
	}
	stack.Register(protos...)
	for i := range events {
		stack.Bind(events[i], handlers[i])
	}

	fmt.Printf("controller %s: %d computations × %d visits over %d microprotocols (seed %d)\n",
		v.Name, comps, scriptLen, mps, seed)
	var wg sync.WaitGroup
	for k := 0; k < comps; k++ {
		script := make([]int, scriptLen)
		for i := range script {
			script[i] = rng.Intn(mps)
		}
		path := make([]*core.Handler, len(script))
		for j, i := range script {
			path[j] = handlers[i]
		}
		spec := core.PathSpec(path...)
		fmt.Printf("  k%d: visits %v\n", k+1, script)
		wg.Add(1)
		go func(script []int, spec *core.Spec) {
			defer wg.Done()
			if err := stack.External(spec, events[script[0]], script[1:]); err != nil {
				fmt.Fprintf(os.Stderr, "computation error: %v\n", err)
			}
		}(script, spec)
	}
	wg.Wait()

	fmt.Println("\nrecorded run:")
	var parts []string
	for _, p := range rec.Run() {
		parts = append(parts, fmt.Sprintf("(k%d:%s, %s)", p.Comp, eventName(p), p.Handler.MP().Name()))
	}
	fmt.Println("  " + strings.Join(parts, " "))
	fmt.Println("\ntimeline:")
	rec.WriteTimeline(os.Stdout, 72)
	st := rec.Stats()
	fmt.Printf("\nstats: %d handler executions, peak concurrency %d, per microprotocol %v\n",
		st.HandlerExecutions, st.MaxConcurrency, st.PerMicroprotocol)
	verdict(rec.Check())
}

func eventName(p trace.RunPair) string {
	if p.Event == nil {
		return "ext"
	}
	return p.Event.Name()
}

// dotOut mirrors the -dot flag.
var dotOut bool

func verdict(rep *trace.Report) {
	fmt.Println("\nisolation check:")
	fmt.Printf("  computations: %d, conflicts: %d, aborted attempts: %d\n",
		rep.Computations, rep.Conflicts, rep.Aborted)
	switch {
	case !rep.Serializable:
		fmt.Printf("  VIOLATION — no equivalent serial execution; witness cycle: %v\n", rep.Cycle)
	case rep.Serial:
		fmt.Printf("  serial run (r1-like); order: %v\n", rep.Order)
	default:
		fmt.Printf("  concurrent but isolated (r2-like); equivalent serial order: %v\n", rep.Order)
	}
	if dotOut {
		fmt.Println("\nconflict graph (DOT):")
		rep.WriteDOT(os.Stdout)
	}
}
