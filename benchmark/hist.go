package main

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// hist is a fixed-bucket log-linear histogram of non-negative nanosecond
// values: 128 linear sub-buckets per power of two, so a reported quantile
// is within 1/256 (<0.4 %) of a recorded value, and a 2M ops/s workload
// costs the same 35 KiB as an idle one. Recording is one atomic add, so a
// hist may be shared; the load drivers still give each worker its own and
// merge at the end to keep the hot counters on one core.
type hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxExp caps the range at 256<<33 ns ≈ 37 min; larger values land
	// in the last bucket (their exact size still shows in max and sum).
	histMaxExp  = 33
	histBuckets = (histMaxExp + 2) * histSub
)

func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - (histSubBits + 1)
	if e > histMaxExp {
		return histBuckets - 1
	}
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// bucketMid is the value a bucket reports: its midpoint.
func bucketMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := uint(i/histSub - 1)
	lo := int64(histSub+i%histSub) << e
	return float64(lo) + float64(int64(1)<<e-1)/2
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

func (h *hist) count() uint64 { return h.n.Load() }
func (h *hist) total() int64  { return h.sum.Load() }

// quantile returns the value of rank ceil(q·n), or NaN for an empty hist.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return float64(h.max.Load()) // only if records raced the walk
}

func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
	h.sum.Add(o.sum.Load())
	if m := o.max.Load(); m > h.max.Load() {
		h.max.Store(m)
	}
}

func (h *hist) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.n.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}
