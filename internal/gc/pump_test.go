package gc

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// goroutineID is the running goroutine's id, from the "goroutine N ["
// header runtime.Stack writes first.
func goroutineID() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(fmt.Sprintf("unparsable stack header %q", buf[:]))
	}
	return id
}

// nopTracer observes nothing; the package's test tracers embed it and
// override the one method they need.
type nopTracer struct{}

func (nopTracer) Spawned(uint64, *core.Spec)                                  {}
func (nopTracer) HandlerStart(uint64, uint64, *core.EventType, *core.Handler) {}
func (nopTracer) HandlerEnd(uint64, uint64, *core.Handler)                    {}
func (nopTracer) Completed(uint64)                                            {}
func (nopTracer) Aborted(uint64)                                              {}

// spawnerTracer records the goroutine every computation was spawned on.
type spawnerTracer struct {
	nopTracer
	mu     sync.Mutex
	spawns int
	on     map[uint64]bool
}

func (tr *spawnerTracer) Spawned(uint64, *core.Spec) {
	id := goroutineID()
	tr.mu.Lock()
	tr.spawns++
	tr.on[id] = true
	tr.mu.Unlock()
}

// TestPumpRunsEveryDatagram pins the one-pump shape structurally: however
// many datagrams flow, a site's computations are spawned on its pump, its
// two tickers and the goroutines that call ABcast. A pool of pump workers,
// or a goroutine per datagram, spawns on more.
func TestPumpRunsEveryDatagram(t *testing.T) {
	const sites, pumps, tickers, callers, perCaller = 3, 1, 2, 3, 170
	sim := simnet.New(simnet.Config{Nodes: sites})
	defer sim.Close()
	tr := &spawnerTracer{on: map[uint64]bool{}}
	ss, delivered := startSites(t, sim, sites, func(_ transport.NodeID, cfg *Config) {
		cfg.FDInterval = 10 * time.Millisecond // both tickers run
		cfg.Tracer = tr
	})
	var wg sync.WaitGroup
	for _, s := range ss[:callers] {
		wg.Add(1)
		go func(s *Site) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if err := s.ABcast([]byte(fmt.Sprintf("s%d-m%d", s.ID(), i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for i, n := range delivered {
		waitUntil(t, fmt.Sprintf("site %d to deliver every broadcast", i), func() bool {
			return n.Load() >= callers*perCaller
		})
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	bound := sites*(pumps+tickers) + callers
	t.Logf("%d computations spawned on %d goroutines (bound %d)", tr.spawns, len(tr.on), bound)
	if len(tr.on) > bound {
		t.Fatalf("%d computations spawned on %d distinct goroutines, want at most %d = %d sites × (%d pump + %d tickers) + %d callers",
			tr.spawns, len(tr.on), bound, sites, pumps, tickers, callers)
	}
	if tr.spawns < 10*bound {
		t.Fatalf("only %d computations spawned: too few to tell one pump from a goroutine per datagram", tr.spawns)
	}
}

// retransGate holds the first retransmission scan inside its handler
// until released, and tracks the computations spawned that have not yet
// started a handler.
type retransGate struct {
	nopTracer
	retransmit       *core.Handler
	entered, release chan struct{}
	once             sync.Once
	mu               sync.Mutex
	unstarted        map[uint64]bool
}

func (g *retransGate) Spawned(comp uint64, _ *core.Spec) {
	g.mu.Lock()
	g.unstarted[comp] = true
	g.mu.Unlock()
}

func (g *retransGate) HandlerStart(comp, _ uint64, _ *core.EventType, h *core.Handler) {
	g.mu.Lock()
	delete(g.unstarted, comp)
	g.mu.Unlock()
	if h == g.retransmit {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
}

func (g *retransGate) Completed(comp uint64) {
	g.mu.Lock()
	delete(g.unstarted, comp)
	g.mu.Unlock()
}

// parked reports whether, while the scan is held, a computation waits to
// start its first handler. Every datagram computation's first handler is
// RelComm's, which the held scan occupies, so such a computation waits
// for the release.
func (g *retransGate) parked() bool {
	select {
	case <-g.entered:
	default:
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.unstarted) > 0
}

// TestStopWithPumpBlocked stops a site whose pump is parked inside a
// datagram computation, waiting behind a held retransmission scan, while
// a flood fills its inbox: Stop returns, nothing is recorded in Errs (the
// stack's lifecycle balance included) and every goroutine the site
// started ends.
func TestStopWithPumpBlocked(t *testing.T) {
	sim := simnet.New(simnet.Config{Nodes: 2})
	defer sim.Close()
	gate := &retransGate{entered: make(chan struct{}), release: make(chan struct{}), unstarted: map[uint64]bool{}}
	s := NewSite(Config{
		Net: sim, ID: 0, InitialView: NewView(0, 1), FDInterval: -1,
		RTO: 4 * time.Millisecond, Tracer: gate,
	})
	gate.retransmit = s.relcomm.hRetransmit
	baseline := runtime.NumGoroutine()
	s.Start()

	// Node 1 floods site 0 with fresh casts until told to stop.
	peer := sim.Endpoint(1)
	stopFlood, flooded := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flooded)
		for seq := uint64(1); ; seq++ {
			select {
			case <-stopFlood:
				return
			default:
			}
			peer.Send(0, BuildCastDatagram(1, seq, MsgID{Origin: 1, Seq: seq}, []byte("flood")).Payload)
			runtime.Gosched()
		}
	}()

	// The held scan's ticker spawns nothing more and no caller runs, so a
	// computation waiting to start is the pump's, parked behind the scan.
	waitUntil(t, "the pump to park behind the held scan", gate.parked)

	stopped := make(chan struct{})
	go func() {
		s.Stop()
		close(stopped)
	}()
	waitUntil(t, "Stop to crash the node", func() bool { return sim.Crashed(0) })
	close(gate.release)
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop did not return")
	}
	close(stopFlood)
	<-flooded

	for _, err := range s.Errs() {
		t.Error(err)
	}
	waitUntil(t, fmt.Sprintf("the goroutine count to return to %d", baseline), func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}
