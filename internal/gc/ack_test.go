package gc

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestQuietRunRetransmitsNothing: deferred acks never let a frame reach
// its RTO unacknowledged. 200 ABcasts on a 3-site group with a 50 ms RTO,
// then 4×RTO of idling, retransmit no frame, and leave none unacked.
func TestQuietRunRetransmitsNothing(t *testing.T) {
	const rto = 50 * time.Millisecond
	sim := simnet.New(simnet.Config{Nodes: 3})
	defer sim.Close()
	sites, delivered := startSites(t, sim, 3, func(_ transport.NodeID, cfg *Config) { cfg.RTO = rto })

	const ops = 200
	for k := 0; k < ops; k++ {
		if err := sites[k%3].ABcast([]byte(fmt.Sprintf("op%d", k))); err != nil {
			t.Fatal(err)
		}
		for i := range sites {
			waitUntil(t, "delivery", func() bool { return delivered[i].Load() == int64(k+1) })
		}
	}
	time.Sleep(4 * rto)
	for _, s := range sites {
		s.Stop() // computations are over: RelComm's state may be read
	}
	for i, s := range sites {
		if n := s.Retransmitted(); n != 0 {
			t.Errorf("site %d retransmitted %d frames", i, n)
		}
		for to, l := range s.relcomm.peers {
			if len(l.unacked) != 0 {
				t.Errorf("site %d: %d frames to site %d unacknowledged after idling", i, len(l.unacked), to)
			}
		}
	}
}

// TestOneWayStreamNeverStalls: a sender whose receiver sends no data back
// is acked by half windows and ticks alone. 1,000 RBcasts from site 0 of
// a 2-site group, with a window of 8, all arrive, nothing stays queued,
// and site 1 sends at most one ack-only datagram per half window of data
// frames it received, plus one per tick and one per duplicate. Each cast
// travels once: the origin does not relay its own copy.
func TestOneWayStreamNeverStalls(t *testing.T) {
	const (
		window = 8
		casts  = 1000
	)
	sim := simnet.New(simnet.Config{Nodes: 2})
	defer sim.Close()
	var frames, acks, other atomic.Int64
	net := tapNet{
		Transport: sim,
		onSend: func(from, _ transport.NodeID, p []byte) {
			switch {
			case from == 0:
				for len(p) > 0 {
					f, rest, err := decodeFrame(p)
					if err != nil {
						t.Errorf("site 0 sent a malformed datagram: %v", err)
						return
					}
					if f.kind == dgData {
						frames.Add(1)
					}
					p = rest
				}
			case ackOnly(p):
				acks.Add(1)
			default:
				other.Add(1)
			}
		},
	}
	var rdelivered atomic.Int64
	tracer := &specTracer{spawns: make(map[*core.Spec]int)}
	sites, _ := startSites(t, net, 2, func(id transport.NodeID, cfg *Config) {
		cfg.SendWindow = window
		if id == 1 {
			cfg.RDeliver = func(transport.NodeID, []byte) { rdelivered.Add(1) }
			cfg.Tracer = tracer
		}
	})

	for k := 0; k < casts; k++ {
		if err := sites[0].RBcast([]byte(fmt.Sprintf("m%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "every cast at site 1", func() bool { return rdelivered.Load() == casts })
	for _, s := range sites {
		s.Stop()
	}

	if n := sites[0].relcomm.Queued(1); n != 0 {
		t.Errorf("%d sends still queued for site 1", n)
	}
	if n := other.Load(); n != 0 {
		t.Errorf("site 1 sent %d datagrams that were not ack-only", n)
	}
	ticks := int64(tracer.count(sites[1].specs[entRetrans]))
	dups := int64(sites[0].Retransmitted())
	if n := frames.Load(); n != casts+dups {
		t.Errorf("site 0 sent %d data frames for %d casts and %d retransmissions", n, casts, dups)
	}
	bound := frames.Load()/(window/2) + ticks + dups
	t.Logf("%d data frames, %d ack-only datagrams back, %d ticks, %d retransmitted", frames.Load(), acks.Load(), ticks, dups)
	if acks.Load() > bound {
		t.Errorf("%d ack-only datagrams for %d data frames, %d ticks and %d retransmissions, want at most %d",
			acks.Load(), frames.Load(), ticks, dups, bound)
	}
}

// TestRejoinedSiteDedupeCompacts is the regression for a fresh
// incarnation of a rejoined site: the survivors' sequence numbers to it
// continue across its crash, and their sender base tells it where its
// dedup window starts. Without the base it would mark every survivor
// frame out of order, growing its sparse set by one per frame forever.
func TestRejoinedSiteDedupeCompacts(t *testing.T) {
	sim := simnet.New(simnet.Config{Nodes: 3})
	defer sim.Close()
	var delivered [3]atomic.Int64
	newSite := func(id transport.NodeID) *Site {
		s := NewSite(Config{
			Net: sim, ID: id, InitialView: NewView(0, 1, 2),
			// The detector lets consensus move past the crashed site when
			// it coordinates.
			FDInterval: 10 * time.Millisecond, SuspectAfter: 60 * time.Millisecond,
			Deliver: func(transport.NodeID, []byte) { delivered[id].Add(1) },
		})
		s.Start()
		return s
	}
	sites := []*Site{newSite(0), newSite(1), newSite(2)}
	t.Cleanup(func() {
		for id, s := range sites {
			s.Stop()
			for _, err := range s.Errs() {
				t.Errorf("site %d: %v", id, err)
			}
		}
	})
	cast := func(from int, n int, members ...int) {
		t.Helper()
		want := make([]int64, len(members))
		for i, id := range members {
			want[i] = delivered[id].Load() + int64(n)
		}
		for k := 0; k < n; k++ {
			if err := sites[from+k%2].ABcast([]byte("m")); err != nil {
				t.Fatal(err)
			}
		}
		for i, id := range members {
			waitUntil(t, fmt.Sprintf("site %d to deliver", id), func() bool { return delivered[id].Load() >= want[i] })
		}
	}

	cast(0, 20, 0, 1, 2)
	sites[2].Stop() // crashes its node
	if err := sites[0].Leave(2); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the survivors to remove site 2", func() bool {
		return !sites[0].View().Contains(2) && !sites[1].View().Contains(2)
	})
	cast(0, 20, 0, 1)

	if !sim.Restart(2) {
		t.Fatal("restart refused")
	}
	delivered[2].Store(0)
	sites[2] = newSite(2)
	if err := sites[0].Join(2); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "every site to install {0,1,2}", func() bool {
		for _, s := range sites {
			if !s.View().Contains(2) {
				return false
			}
		}
		return true
	})
	cast(0, 300, 0, 1, 2)
	for _, s := range sites {
		s.Stop() // computations are over: RelComm's state may be read
	}

	const window = 64 // the default SendWindow
	for from := transport.NodeID(0); from < 2; from++ {
		seen := &sites[2].relcomm.peers[from].seen
		next := sites[from].relcomm.peers[2].nextSeq
		t.Logf("site 2's window for site %d: low %d, sparse %d; site %d's next seq %d", from, seen.Low(), seen.SparseLen(), from, next)
		if seen.SparseLen() > window || seen.Low()+window < next {
			t.Errorf("site 2's window for site %d: low %d, sparse %d; want sparse ≤ %d and low within %d of site %d's next seq %d",
				from, seen.Low(), seen.SparseLen(), window, window, from, next)
		}
	}
}
