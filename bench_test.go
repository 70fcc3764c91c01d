// Root-level testing.B benchmarks, one family per experiment in
// EXPERIMENTS.md. Each benchmark exercises the corresponding workload from
// internal/bench per iteration; run cmd/samoa-bench for the full tables.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

// BenchmarkE1Fig1 runs one concurrent execution of Figure 1's external
// events per iteration, per controller.
func BenchmarkE1Fig1(b *testing.B) {
	for _, v := range bench.PaperVariants() {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			f := bench.NewFig1(v, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.RunOnce()
			}
		})
	}
}

// BenchmarkE2SpawnOnly measures the cost of an empty computation
// (spawn + complete).
func BenchmarkE2SpawnOnly(b *testing.B) {
	for _, v := range bench.Variants() {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			w := bench.NewCallWorkload(v, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunSpawnOnly(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2HandlerCalls measures a computation of 16 uncontended
// handler calls — the E2 overhead figure.
func BenchmarkE2HandlerCalls(b *testing.B) {
	for _, v := range bench.Variants() {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			w := bench.NewCallWorkload(v, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunComputation(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Chain measures throughput of 3-stage chain computations with
// CPU work, on disjoint and shared microprotocol sets, at 1 and 8 workers.
func BenchmarkE3Chain(b *testing.B) {
	for _, shared := range []bool{false, true} {
		shape := "disjoint"
		if shared {
			shape = "shared"
		}
		for _, v := range bench.PaperVariants() {
			if v.Name == "none" && shared {
				continue
			}
			for _, g := range []int{1, 8} {
				v, g := v, g
				b.Run(fmt.Sprintf("%s/%s/g%d", shape, v.Name, g), func(b *testing.B) {
					w := bench.NewScaleWorkload(v, g, shared, 50*time.Microsecond)
					ops := b.N
					if ops < g {
						ops = g
					}
					b.ResetTimer()
					if _, err := w.Run(g, ops); err != nil {
						b.Fatal(err)
					}
				})
			}
		}
	}
}

// BenchmarkE4ABcast measures one atomic broadcast delivered at every site
// of a 3-site group, per controller.
func BenchmarkE4ABcast(b *testing.B) {
	for _, v := range bench.PaperVariants() {
		if v.Name == "none" {
			continue
		}
		v := v
		b.Run(v.Name+"/n3", func(b *testing.B) {
			c := bench.NewCluster(v, 3, 77)
			defer c.Stop()
			b.ResetTimer()
			if _, err := c.Broadcast(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkE5Pipeline measures a 16-item batch through the 3-stage
// pipeline per iteration, per spec-precision ablation point.
func BenchmarkE5Pipeline(b *testing.B) {
	for _, cfg := range bench.PipelineConfigs(200 * time.Microsecond) {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			p := bench.NewPipeline(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6ViewRace measures one full §3 race orchestration under
// VCAbasic (site setup + adversarial schedule + delivery).
func BenchmarkE6ViewRace(b *testing.B) {
	v, _ := bench.VariantByName("vca-basic")
	for i := 0; i < b.N; i++ {
		if res := bench.RunE6Race(v); !res.Delivered {
			b.Fatal("isolating controller lost the message")
		}
	}
}

// BenchmarkE8Rollback measures 4 workers × b.N contended computations
// (3 of 4 microprotocols each) per controller group — versioning vs
// rollback/recovery.
func BenchmarkE8Rollback(b *testing.B) {
	for _, name := range []string{"serial", "vca-basic", "wait-die"} {
		name := name
		b.Run(name, func(b *testing.B) {
			v, ok := bench.VariantByName(name)
			if !ok {
				b.Fatal("unknown variant")
			}
			w := bench.NewRollbackWorkload(v.New(), 4, 20*time.Microsecond)
			per := b.N/4 + 1
			b.ResetTimer()
			if _, err := w.Run(4, per, 3, 7); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkE9Transport measures b.N 256-byte messages through the full
// (reliable, ordered, checksummed) ctp stack on a clean link.
func BenchmarkE9Transport(b *testing.B) {
	for _, shape := range bench.TransportShapes() {
		if shape.Loss > 0 || shape.Corrupt > 0 || !shape.Reliable {
			// Adversity runs are wall-clock noise, and unreliable
			// compositions legitimately drop under b.N-sized bursts
			// (inbox overflow, no repair); samoa-bench -exp e9 covers
			// the full grid at controlled message counts.
			continue
		}
		shape := shape
		b.Run(shape.Name, func(b *testing.B) {
			v, _ := bench.VariantByName("vca-basic")
			tr, err := bench.NewTransport(v, shape, 31)
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Stop()
			b.ResetTimer()
			if _, got, err := tr.Run(b.N, 256); err != nil || got < int64(b.N) {
				b.Fatalf("got %d of %d (err %v)", got, b.N, err)
			}
		})
	}
}

// BenchmarkTriggerSealed measures the sealed-stack synchronous dispatch
// fast path: one admitted computation issuing nop Trigger calls. This is
// the per-call framework overhead floor; the sealed path must stay at
// 0 allocs/op.
func BenchmarkTriggerSealed(b *testing.B) {
	for _, name := range []string{"none", "vca-basic"} {
		v, ok := bench.VariantByName(name)
		if !ok {
			b.Fatal("unknown variant")
		}
		b.Run(name, func(b *testing.B) {
			st := core.NewStack(v.New())
			mp := core.NewMicroprotocol("mp")
			h := mp.AddHandler("h", func(*core.Context, core.Message) error { return nil })
			st.Register(mp)
			et := core.NewEventType("e")
			st.Bind(et, h)
			b.ReportAllocs()
			err := st.Isolated(core.Access(mp), func(ctx *core.Context) error {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := ctx.Trigger(et, nil); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchSnap is a trivial snapshotter so wait-die can run spawn-only
// benchmarks (it snapshots lazily at Enter, never reached here).
type benchSnap struct{}

func (benchSnap) Snapshot() any { return nil }
func (benchSnap) Restore(_ any) {}

// BenchmarkSpawnComplete measures the controller-level cost of one empty
// computation — Spawn, RootReturned, Complete — over a 4-microprotocol
// spec. This isolates rule 1 + rule 3 bookkeeping from dispatch.
func BenchmarkSpawnComplete(b *testing.B) {
	for _, v := range bench.Variants() {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			mps := make([]*core.Microprotocol, 4)
			hs := make([]*core.Handler, 4)
			for i := range mps {
				mps[i] = core.NewMicroprotocol(fmt.Sprintf("mp%d", i))
				mps[i].SetSnapshotter(benchSnap{})
				hs[i] = mps[i].AddHandler("h", func(*core.Context, core.Message) error { return nil })
			}
			spec := core.PathSpec(hs...)
			ctrl := v.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok, err := ctrl.Spawn(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				ctrl.RootReturned(tok)
				ctrl.Complete(tok)
			}
		})
	}
}

// contentionStack builds `lanes` single-microprotocol lanes (no-op
// handler, one event, one Access spec each) on a fresh stack for v.
func contentionStack(v bench.Variant, lanes int) (*core.Stack, []*core.EventType, []*core.Spec) {
	st := core.NewStack(v.New())
	ets := make([]*core.EventType, lanes)
	specs := make([]*core.Spec, lanes)
	for i := 0; i < lanes; i++ {
		mp := core.NewMicroprotocol(fmt.Sprintf("mp%d", i))
		h := mp.AddHandler("h", func(*core.Context, core.Message) error { return nil })
		st.Register(mp)
		ets[i] = core.NewEventType(fmt.Sprintf("e%d", i))
		st.Bind(ets[i], h)
		specs[i] = core.Access(mp)
	}
	return st, ets, specs
}

// BenchmarkContentionDisjoint measures parallel scaling of full
// computations on disjoint microprotocol sets — framework-level
// contention (spawn admission, dispatch, wakeups) with zero algorithmic
// conflicts; under the sharded tables this is the lock-free CAS
// fast-path regime. The p1/p2/p4/p8 sub-benchmarks set b.SetParallelism,
// so a plain `go test -bench ContentionDisjoint` produces the scaling
// curve (p× goroutines per GOMAXPROCS); sweeping -cpu 1,2,4,8 on
// multi-core hardware additionally scales the Ps themselves.
func BenchmarkContentionDisjoint(b *testing.B) {
	const lanes = 8
	for _, name := range []string{"none", "vca-basic"} {
		v, ok := bench.VariantByName(name)
		if !ok {
			b.Fatal("unknown variant")
		}
		b.Run(name, func(b *testing.B) {
			for _, p := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
					st, ets, specs := contentionStack(v, lanes)
					var next atomic.Uint64
					b.SetParallelism(p)
					b.ReportAllocs()
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						lane := int(next.Add(1)-1) % lanes
						for pb.Next() {
							if err := st.External(specs[lane], ets[lane], nil); err != nil {
								b.Fatal(err)
							}
						}
					})
				})
			}
		})
	}
}

// BenchmarkContentionZipf draws each computation's single-microprotocol
// footprint zipfian over 16 lanes: a few hot lanes see most spawns, so
// fast-path claims mix with ordered-lock slow claims and the occasional
// abandoned-claim phantom release.
func BenchmarkContentionZipf(b *testing.B) {
	const lanes = 16
	for _, name := range []string{"none", "vca-basic"} {
		v, ok := bench.VariantByName(name)
		if !ok {
			b.Fatal("unknown variant")
		}
		b.Run(name, func(b *testing.B) {
			st, ets, specs := contentionStack(v, lanes)
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				z := rand.NewZipf(rand.New(rand.NewSource(int64(next.Add(1)))), 1.2, 1, lanes-1)
				for pb.Next() {
					lane := int(z.Uint64())
					if err := st.External(specs[lane], ets[lane], nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkContentionHotKey gives every computation a two-slot footprint
// {own, hot} sharing one hot microprotocol: every spawn conflicts there,
// so admission always takes the ordered-lock slow path and the isolating
// controllers serialize on the hot slot by design — the floor of the
// scaling story, reported honestly next to the disjoint ceiling.
func BenchmarkContentionHotKey(b *testing.B) {
	const lanes = 8
	for _, name := range []string{"none", "vca-basic"} {
		v, ok := bench.VariantByName(name)
		if !ok {
			b.Fatal("unknown variant")
		}
		b.Run(name, func(b *testing.B) {
			st := core.NewStack(v.New())
			hot := core.NewMicroprotocol("hot")
			hotH := hot.AddHandler("h", func(*core.Context, core.Message) error { return nil })
			st.Register(hot)
			hotEv := core.NewEventType("e-hot")
			st.Bind(hotEv, hotH)
			ets := make([]*core.EventType, lanes)
			specs := make([]*core.Spec, lanes)
			for i := 0; i < lanes; i++ {
				mp := core.NewMicroprotocol(fmt.Sprintf("own%d", i))
				h := mp.AddHandler("h", func(ctx *core.Context, msg core.Message) error {
					return ctx.Trigger(hotEv, msg)
				})
				st.Register(mp)
				ets[i] = core.NewEventType(fmt.Sprintf("e%d", i))
				st.Bind(ets[i], h)
				specs[i] = core.Access(mp, hot)
			}
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				lane := int(next.Add(1)-1) % lanes
				for pb.Next() {
					if err := st.External(specs[lane], ets[lane], nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkE7ReadHeavy measures 8 workers × b.N read-only computations on
// one shared microprotocol — the §7 isolation-level ablation.
func BenchmarkE7ReadHeavy(b *testing.B) {
	for _, name := range []string{"serial", "vca-basic", "vca-rw"} {
		name := name
		b.Run(name, func(b *testing.B) {
			v, ok := bench.VariantByName(name)
			if !ok {
				b.Fatal("unknown variant")
			}
			w := bench.NewRWWorkload(v.New(), 50*time.Microsecond)
			per := b.N/8 + 1
			b.ResetTimer()
			if _, _, err := w.Run(8, per, 1.0); err != nil {
				b.Fatal(err)
			}
		})
	}
}
