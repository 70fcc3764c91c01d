package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

var processStart = time.Now()

// nowNs is the benchmark's one clock: monotonic nanoseconds since the
// process started.
func nowNs() int64 { return int64(time.Since(processStart)) }

// sliceNs is the length of the slices a window's latencies are kept in. The
// gated percentiles are each slice's percentile, averaged over the middle
// half of the slices: a percentile of the whole window moves whenever
// anything disturbs 5 % of it, which on a shared host is most runs, while
// the typical second's percentile only moves when the system does.
const sliceNs = int64(time.Second)

// window is what one load run measured. An op that returned an error, timed
// out, or was refused at the in-flight cap is attempted and failed and has
// no latency sample: it misses every latency limit by construction.
type window struct {
	attempted, failed uint64
	lat               hist   // acked ops, ns; open loop: from the instant the op was due
	slices            []hist // the same samples by slice: of completion (closed loop) or of the due instant (open loop)
	genLate           hist   // open loop only: how late the generator fired, ns
	elapsedNs         int64
}

func (w *window) acked() uint64 { return w.lat.count() }

func sliceCount(d time.Duration) int {
	if n := int((int64(d) + sliceNs - 1) / sliceNs); n > 1 {
		return n
	}
	return 1
}

func sliceOf(sinceStart int64, slices int) int {
	if i := int(sinceStart / sliceNs); i < slices {
		return i
	}
	return slices - 1
}

// typical returns the q-quantile of a typical slice: the slices' quantiles
// sorted, the lowest and the highest quarter dropped, the rest averaged.
func (w *window) typical(q float64) float64 {
	var per []float64
	for i := range w.slices {
		if w.slices[i].count() > 0 {
			per = append(per, w.slices[i].quantile(q))
		}
	}
	if len(per) == 0 {
		return math.NaN()
	}
	sort.Float64s(per)
	mid := per[len(per)/4 : len(per)-len(per)/4]
	var sum float64
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// closedLoop runs `clients` callers that each issue their next op only when
// the previous one returned, until d has passed (d > 0) or each has issued
// perClient ops (perClient > 0). One clock read per op: an op's latency is
// the gap between consecutive completions of its client, so it includes the
// few nanoseconds of recording, which a real caller also spends.
func closedLoop(clients int, d time.Duration, perClient int, op func(client, k int) error) *window {
	w := &window{slices: make([]hist, sliceCount(d))}
	type tally struct {
		slices            []hist
		attempted, failed uint64
	}
	per := make([]tally, clients)
	for i := range per {
		per[i].slices = make([]hist, len(w.slices))
	}
	start := nowNs()
	deadline := start + int64(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &per[c]
			prev := nowNs()
			for k := 0; (d <= 0 || prev < deadline) && (perClient <= 0 || k < perClient); k++ {
				err := op(c, k)
				now := nowNs()
				t.attempted++
				if err != nil {
					t.failed++
				} else {
					t.slices[sliceOf(now-start, len(t.slices))].record(now - prev)
				}
				prev = now
			}
		}(c)
	}
	wg.Wait()
	w.elapsedNs = nowNs() - start
	for i := range per {
		w.attempted += per[i].attempted
		w.failed += per[i].failed
		for j := range w.slices {
			w.slices[j].merge(&per[i].slices[j])
		}
	}
	for j := range w.slices {
		w.lat.merge(&w.slices[j])
	}
	return w
}

// clock is the open loop's view of time, relative to the loop's start, so a
// test can drive the generator on a fake one.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ start int64 }

func (c wallClock) now() time.Duration { return time.Duration(nowNs() - c.start) }

// sleepUntil sleeps in the kernel, not in the Go runtime: the runtime wakes
// an otherwise idle process in whole milliseconds, which would make every
// paced op up to a millisecond late; nanosleep is late by about 0.1 ms.
func (c wallClock) sleepUntil(t time.Duration) {
	for d := t - c.now(); d > 0; d = t - c.now() {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}

// openLoop fires op k at due(k) whether or not earlier ops have returned,
// from one generator. Latency runs from the instant the op was due, not
// from when the generator got round to it, so a stall — in the system or in
// the generator — is charged to every op that was due behind it
// (no coordinated omission); genLate records the generator's share. An op
// due while inFlightCap ops are outstanding is refused and failed. start
// launches an op's body; the real one is `go`.
func openLoop(clk clock, n int, due func(k int) time.Duration, inFlightCap int, start func(func()), op func(k int) error) *window {
	w := &window{}
	if n == 0 {
		return w
	}
	w.slices = make([]hist, sliceCount(due(n-1)+1))
	var inFlight, failed atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		at := due(k)
		clk.sleepUntil(at)
		w.genLate.record(int64(clk.now() - at))
		w.attempted++
		if inFlight.Load() >= int64(inFlightCap) {
			failed.Add(1)
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		k := k
		start(func() {
			defer wg.Done()
			err := op(k)
			done := clk.now()
			inFlight.Add(-1)
			if err != nil {
				failed.Add(1)
				return
			}
			w.slices[sliceOf(int64(at), len(w.slices))].record(int64(done - at))
		})
	}
	wg.Wait()
	for j := range w.slices {
		w.lat.merge(&w.slices[j])
	}
	w.elapsedNs = int64(clk.now())
	w.failed = uint64(failed.Load())
	return w
}
