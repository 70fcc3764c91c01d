package gc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
		if n := s.relcomm.retransmitted.Load(); n != 0 {
			t.Errorf("site %d retransmitted %d frames", i, n)
		}
		for to, l := range s.relcomm.peers {
			if n := l.State().Unacked; n != 0 {
				t.Errorf("site %d: %d frames to site %d unacknowledged after idling", i, n, to)
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
					if f.Kind == dgData {
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
	tracer := &countTracer{}
	sites, _ := newSites(t, net, 2, func(id transport.NodeID, cfg *Config) {
		if id == 1 {
			cfg.RDeliver = func(transport.NodeID, []byte) { rdelivered.Add(1) }
			cfg.Tracer = tracer
		}
	})
	for _, s := range sites {
		s.relcomm.window = window
		s.Start()
	}

	for k := 0; k < casts; k++ {
		if err := sites[0].RBcast([]byte(fmt.Sprintf("m%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "every cast at site 1", func() bool { return rdelivered.Load() == casts })
	for _, s := range sites {
		s.Stop()
	}

	if n := queued(sites[0].relcomm, 1); n != 0 {
		t.Errorf("%d sends still queued for site 1", n)
	}
	if n := other.Load(); n != 0 {
		t.Errorf("site 1 sent %d datagrams that were not ack-only", n)
	}
	ticks := int64(tracer.ran(sites[1].relcomm.hRetransmit))
	dups := int64(sites[0].relcomm.retransmitted.Load())
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

// rejoinGroup runs 3 sites with a failure detector through 20 ABcasts,
// crashes site 2, removes it with Leave, runs 20 more ABcasts and joins a
// fresh incarnation of site 2 back. onDeliver, if set, runs inside every
// delivering computation, with the delivering site. cast sends n ABcasts,
// alternating between sites from and from+1, and waits until each listed
// member delivered them.
func rejoinGroup(t *testing.T, onDeliver func(s *Site, data []byte)) (sites []*Site, cast func(from, n int, members ...int)) {
	t.Helper()
	sim := simnet.New(simnet.Config{Nodes: 3})
	t.Cleanup(sim.Close)
	var delivered [3]atomic.Int64
	newSite := func(id transport.NodeID) *Site {
		var s *Site
		s = NewSite(Config{
			Net: sim, ID: id, InitialView: NewView(0, 1, 2),
			// The detector lets consensus move past the crashed site when
			// it coordinates.
			FDInterval: 10 * time.Millisecond, SuspectAfter: 60 * time.Millisecond,
			Deliver: func(_ transport.NodeID, data []byte) {
				delivered[id].Add(1)
				if onDeliver != nil {
					onDeliver(s, data)
				}
			},
		})
		s.Start()
		return s
	}
	sites = []*Site{newSite(0), newSite(1), newSite(2)}
	t.Cleanup(func() {
		for id, s := range sites {
			s.Stop()
			for _, err := range s.Errs() {
				t.Errorf("site %d: %v", id, err)
			}
		}
	})
	cast = func(from int, n int, members ...int) {
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
	return sites, cast
}

// TestRejoinedSiteDedupeCompacts is the regression for a fresh
// incarnation of a rejoined site: the survivors' sequence numbers to it
// continue across its crash, and their sender base tells it where its
// dedup window starts. Without the base it would mark every survivor
// frame out of order, growing its sparse set by one per frame forever.
func TestRejoinedSiteDedupeCompacts(t *testing.T) {
	sites, cast := rejoinGroup(t, nil)
	cast(0, 300, 0, 1, 2)
	for _, s := range sites {
		s.Stop() // computations are over: RelComm's state may be read
	}

	const window = sendWindow
	for from := transport.NodeID(0); from < 2; from++ {
		seen := sites[2].relcomm.peers[from].State()
		next := sites[from].relcomm.peers[2].State().NextSeq
		t.Logf("site 2's window for site %d: low %d, sparse %d; site %d's next seq %d", from, seen.Low, seen.Sparse, from, next)
		if seen.Sparse > window || seen.Low+window < next {
			t.Errorf("site 2's window for site %d: low %d, sparse %d; want sparse ≤ %d and low within %d of site %d's next seq %d",
				from, seen.Low, seen.Sparse, window, window, from, next)
		}
	}
}

// TestRejoinedSiteCoordinatesInRound0: a suspicion dies with the
// suspect's membership. After site 2 crashed, left and rejoined, no
// survivor still suspects it, and each instance it coordinates decides in
// round 0 at every site, with no PREPARE round past it.
func TestRejoinedSiteCoordinatesInRound0(t *testing.T) {
	type decided struct {
		site      transport.NodeID
		inst      uint64
		round     uint32
		suspected bool
	}
	var (
		mu      sync.Mutex
		probing atomic.Bool
		seen    []decided
	)
	// Runs inside the delivering computation, nested in Consensus's
	// decide: the delivered instance is still in Consensus's state.
	onDeliver := func(s *Site, _ []byte) {
		if !probing.Load() {
			return
		}
		inst := s.ab.nextDecide
		if s.cons.view.coordinator(inst, 0) != 2 {
			return
		}
		st := s.cons.insts[inst]
		if st == nil {
			t.Errorf("site %d delivers instance %d with no consensus state", s.ID(), inst)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, decided{s.ID(), inst, st.round, s.cons.suspects[2]})
	}
	_, cast := rejoinGroup(t, onDeliver)
	probing.Store(true)
	for k := 0; k < 6; k++ {
		cast(0, 1, 0, 1, 2) // one cast per instance
	}

	mu.Lock()
	defer mu.Unlock()
	insts := map[uint64]int{}
	for _, d := range seen {
		insts[d.inst]++
		if d.round != 0 || d.suspected {
			t.Errorf("site %d decided site 2's instance %d in round %d, suspecting site 2: %v; want round 0, no suspicion",
				d.site, d.inst, d.round, d.suspected)
		}
	}
	if len(insts) == 0 {
		t.Fatal("no instance coordinated by site 2 was delivered")
	}
	for inst, n := range insts {
		if n != 3 {
			t.Errorf("instance %d delivered at %d sites, want 3", inst, n)
		}
	}
}
