package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// procSnap is the process-level ledger the runtime and the kernel keep for
// free: it is read at both ends of a window in traced and untraced runs
// alike.
type procSnap struct {
	cpuNs      int64 // user + system
	ctxSw      int64 // voluntary + involuntary
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		ctxSw:      ru.Nvcsw + ru.Nivcsw,
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
	}
}

// goroutinePeak samples runtime.NumGoroutine every 20 ms until stopped.
type goroutinePeak struct {
	peak atomic.Int64
	quit chan struct{}
	done chan struct{}
}

func watchGoroutines() *goroutinePeak {
	g := &goroutinePeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > g.peak.Load() {
				g.peak.Store(n)
			}
			select {
			case <-g.quit:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

func (g *goroutinePeak) stop() int64 {
	close(g.quit)
	<-g.done
	return g.peak.Load()
}

// procMetrics turns two snapshots into the proc.* metrics of a window of
// windowNs in which ops operations were acked.
func procMetrics(a, b procSnap, windowNs int64, ops uint64, peak int64) []metric {
	n := float64(ops)
	cpu := float64(b.cpuNs - a.cpuNs)
	return []metric{
		{"proc.cpu_s_per_kop", "s/kop", cpu / 1e9 / n * 1e3},
		{"proc.cpu_util", "ratio", cpu / (float64(windowNs) * float64(runtime.NumCPU()))},
		{"proc.allocs_per_op", "1/op", float64(b.mallocs-a.mallocs) / n},
		{"proc.alloc_bytes_per_op", "B/op", float64(b.allocBytes-a.allocBytes) / n},
		{"proc.gc_cycles", "count", float64(b.gcCycles - a.gcCycles)},
		{"proc.ctxsw_per_op", "1/op", float64(b.ctxSw-a.ctxSw) / n},
		{"proc.goroutines_peak", "count", float64(peak)},
	}
}
