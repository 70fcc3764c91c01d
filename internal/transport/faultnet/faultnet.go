// Package faultnet is fault-injecting middleware for the transport seam:
// it wraps any transport.Transport backend — the deterministic simulator
// or real UDP sockets — and perturbs traffic at the sender's edge with
// seeded, per-link-deterministic faults: drop, duplicate, reorder, delay
// and payload corruption, plus symmetric and asymmetric partitions.
//
// Wrapping happens below the protocol stacks and above the wire, so the
// same storm definition runs unchanged against simnet and udpnet. It is
// the only place faults come from: the backends just carry datagrams and
// crash/restart nodes, and partition injection (transport.Partitioner)
// exists only here. All fault decisions come from one RNG per directed
// link, seeded from Config.Seed and the link's endpoints — so a given seed
// produces the same fault pattern on a link regardless of how traffic on
// other links interleaves.
//
// With every rate zero the wrapper is a transparent pass-through and must
// be behaviorally invisible: internal/transport/conformance runs its full
// battery against faultnet-wrapped backends to hold it to that.
package faultnet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Rates configures the per-message fault probabilities. Faults are
// decided independently per Send, in this order: partition (absolute),
// drop, corrupt, duplicate, reorder, delay.
type Rates struct {
	// Drop is the probability a datagram is silently discarded.
	Drop float64
	// Corrupt is the probability one payload byte is flipped before the
	// datagram is forwarded (exercises checksum/decode layers).
	Corrupt float64
	// Dup is the probability a datagram is forwarded twice.
	Dup float64
	// Reorder is the probability a datagram is held back until the next
	// datagram on the same link has been forwarded (adjacent swap); a
	// short backstop timer flushes the held datagram if the link goes
	// quiet, so nothing is held forever.
	Reorder float64
	// Delay is the probability a datagram is forwarded after a uniform
	// hold in [DelayMin, DelayMax] instead of inline — later traffic
	// overtakes it. Delay 1 is a per-link latency/jitter model. The held
	// datagram goes through the inner Send after the hold, so it is lost
	// if its sender crashed meanwhile.
	Delay float64
	// DelayMin and DelayMax bound the injected hold (defaults 1ms–5ms
	// when Delay > 0 and both are zero).
	DelayMin, DelayMax time.Duration
}

// Config describes a fault-injecting wrapper.
type Config struct {
	// Inner is the wrapped backend (required).
	Inner transport.Transport
	// Seed seeds the per-link fault generators.
	Seed int64
	// Rates are the initial fault rates (all zero = pass-through).
	Rates Rates
}

type linkKey struct{ from, to transport.NodeID }

// link is the per-directed-link fault state: its seeded RNG and the
// reorder hold-back slot.
type link struct {
	rng  *rand.Rand
	held []byte // payload awaiting the next send on this link
}

// Net is the fault-injecting transport. It implements
// transport.Transport and transport.Partitioner.
type Net struct {
	inner transport.Transport
	seed  int64

	mu      sync.Mutex
	rates   Rates                    //samoa:guard mu
	links   map[linkKey]*link        //samoa:guard mu
	group   map[transport.NodeID]int //samoa:guard mu — partition group per node; nil = healed
	blocked map[linkKey]bool         //samoa:guard mu — asymmetric one-way blocks
	closed  bool                     //samoa:guard mu

	// Overlay counters for faults injected here; Stats() adds them to
	// the inner backend's counters (which count what was forwarded).
	sent             atomic.Uint64
	corrupted        atomic.Uint64
	droppedLoss      atomic.Uint64
	droppedPartition atomic.Uint64
}

var (
	_ transport.Transport   = (*Net)(nil)
	_ transport.Partitioner = (*Net)(nil)
)

// New wraps cfg.Inner. It panics when Inner is nil (a construction-time
// programming error, like simnet's invalid node count).
func New(cfg Config) *Net {
	if cfg.Inner == nil {
		panic("faultnet: Config.Inner is required")
	}
	return &Net{
		inner:   cfg.Inner,
		seed:    cfg.Seed,
		rates:   cfg.Rates,
		links:   make(map[linkKey]*link),
		blocked: make(map[linkKey]bool),
	}
}

// SetRates replaces the fault rates; chaos storms use it to phase
// message chaos in and out at runtime.
func (n *Net) SetRates(r Rates) {
	n.mu.Lock()
	n.rates = r
	n.mu.Unlock()
}

// Rates returns the current fault rates.
func (n *Net) Rates() Rates {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rates
}

// Partition splits the cluster: datagrams flow only within a group;
// nodes not listed in any group land in an implicit extra group together
// (the transport.Partitioner contract).
func (n *Net) Partition(groups ...[]transport.NodeID) {
	g := make(map[transport.NodeID]int)
	for i, grp := range groups {
		for _, id := range grp {
			g[id] = i + 1
		}
	}
	n.mu.Lock()
	n.group = g // unlisted nodes default to group 0
	n.mu.Unlock()
}

// BlockLink cuts the directed link from→to (asymmetric partition: from's
// datagrams to to are dropped; the reverse direction is unaffected).
func (n *Net) BlockLink(from, to transport.NodeID) {
	n.mu.Lock()
	n.blocked[linkKey{from, to}] = true
	n.mu.Unlock()
}

// UnblockLink restores the directed link from→to.
func (n *Net) UnblockLink(from, to transport.NodeID) {
	n.mu.Lock()
	delete(n.blocked, linkKey{from, to})
	n.mu.Unlock()
}

// Heal removes any partition, symmetric or asymmetric.
func (n *Net) Heal() {
	n.mu.Lock()
	n.group = nil
	n.blocked = make(map[linkKey]bool)
	n.mu.Unlock()
}

func (n *Net) linkLocked(k linkKey) *link {
	l := n.links[k]
	if l == nil {
		// Mix the endpoints into the seed so every directed link gets an
		// independent, reproducible stream.
		h := n.seed ^ (int64(k.from)+1)*0x7f4a7c15 ^ (int64(k.to)+1)*0x27d4eb4f
		l = &link{rng: rand.New(rand.NewSource(h))}
		n.links[k] = l
	}
	return l
}

// sendPlan is what the locked fault-decision phase concludes; the
// forwarding itself happens unlocked.
type sendPlan struct {
	payload []byte // nil when the datagram was dropped or held back
	dropped bool
	copies  int // 1 or 2 (duplicate)
	delay   time.Duration
	release []byte // previously held datagram to forward first
}

// send applies the fault pipeline to one datagram.
func (n *Net) send(from, to transport.NodeID, payload []byte) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	r := n.rates
	if n.group != nil && n.group[from] != n.group[to] || n.blocked[linkKey{from, to}] {
		n.mu.Unlock()
		n.sent.Add(1)
		n.droppedPartition.Add(1)
		return
	}
	l := n.linkLocked(linkKey{from, to})
	var plan sendPlan
	plan.copies = 1
	// A held datagram is released by the next send on its link,
	// whatever faults that send then suffers itself.
	plan.release, l.held = l.held, nil
	switch {
	case r.Drop > 0 && l.rng.Float64() < r.Drop:
		plan.dropped = true
	default:
		plan.payload = payload
		if r.Corrupt > 0 && l.rng.Float64() < r.Corrupt && len(payload) > 0 {
			plan.payload = append([]byte(nil), payload...)
			plan.payload[l.rng.Intn(len(plan.payload))] ^= 1 << uint(l.rng.Intn(8))
			n.corrupted.Add(1)
		}
		if r.Dup > 0 && l.rng.Float64() < r.Dup {
			plan.copies = 2
		}
		if r.Reorder > 0 && l.rng.Float64() < r.Reorder {
			l.held = append([]byte(nil), plan.payload...)
			plan.payload = nil // held, not lost
			n.backstopLocked(from, to)
		} else if r.Delay > 0 && l.rng.Float64() < r.Delay {
			lo, hi := r.DelayMin, r.DelayMax
			if lo == 0 && hi == 0 {
				lo, hi = time.Millisecond, 5*time.Millisecond
			}
			if hi < lo {
				hi = lo
			}
			plan.delay = lo
			if hi > lo {
				plan.delay += time.Duration(l.rng.Int63n(int64(hi - lo + 1)))
			}
		}
	}
	n.mu.Unlock()

	ep := n.inner.Endpoint(from)
	switch {
	case plan.dropped:
		n.sent.Add(1)
		n.droppedLoss.Add(1)
	case plan.payload == nil:
		// Held for reorder; the next send (or the backstop) emits it.
	case plan.delay > 0:
		p := append([]byte(nil), plan.payload...)
		copies := plan.copies
		time.AfterFunc(plan.delay, func() {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if closed {
				return
			}
			for i := 0; i < copies; i++ {
				ep.Send(to, p)
			}
		})
	default:
		for i := 0; i < plan.copies; i++ {
			ep.Send(to, plan.payload)
		}
	}
	// The previously held datagram goes out after the current one — that
	// inversion is the reorder.
	if plan.release != nil {
		ep.Send(to, plan.release)
	}
}

// backstopLocked flushes a held (reordered) datagram after a short quiet
// period, so a link that goes silent still delivers its last message.
func (n *Net) backstopLocked(from, to transport.NodeID) {
	k := linkKey{from, to}
	time.AfterFunc(2*time.Millisecond, func() {
		n.mu.Lock()
		var p []byte
		if l := n.links[k]; l != nil && l.held != nil {
			p, l.held = l.held, nil
		}
		closed := n.closed
		n.mu.Unlock()
		if p != nil && !closed {
			n.inner.Endpoint(from).Send(to, p)
		}
	})
}

// Size reports the wrapped cluster's address space.
func (n *Net) Size() int { return n.inner.Size() }

// Endpoint returns the fault-injecting attachment of a hosted node.
func (n *Net) Endpoint(id transport.NodeID) transport.Endpoint {
	return &endpoint{inner: n.inner.Endpoint(id), net: n}
}

// Crash delegates to the wrapped backend.
func (n *Net) Crash(id transport.NodeID) { n.inner.Crash(id) }

// Restart delegates to the wrapped backend.
func (n *Net) Restart(id transport.NodeID) bool { return n.inner.Restart(id) }

// Crashed delegates to the wrapped backend.
func (n *Net) Crashed(id transport.NodeID) bool { return n.inner.Crashed(id) }

// Stats merges the wrapper's fault counters with the wrapped backend's:
// a datagram killed here counts as Sent (the caller did call Send) plus
// the matching drop reason; forwarded datagrams are counted by the inner
// backend as usual.
func (n *Net) Stats() transport.Stats {
	s := n.inner.Stats()
	s.Sent += n.sent.Load()
	s.Corrupted += n.corrupted.Load()
	s.DroppedLoss += n.droppedLoss.Load()
	s.DroppedPartition += n.droppedPartition.Load()
	return s
}

// Close shuts down the wrapper and the wrapped backend; pending delayed
// and held datagrams are discarded.
func (n *Net) Close() {
	n.mu.Lock()
	n.closed = true
	for _, l := range n.links {
		l.held = nil
	}
	n.mu.Unlock()
	n.inner.Close()
}

// endpoint decorates an inner endpoint with the fault pipeline on Send.
type endpoint struct {
	inner transport.Endpoint
	net   *Net
}

func (e *endpoint) ID() transport.NodeID { return e.inner.ID() }

func (e *endpoint) Send(to transport.NodeID, payload []byte) {
	e.net.send(e.inner.ID(), to, payload)
}

func (e *endpoint) Recv() (transport.Datagram, bool)    { return e.inner.Recv() }
func (e *endpoint) TryRecv() (transport.Datagram, bool) { return e.inner.TryRecv() }
