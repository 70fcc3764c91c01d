package gc

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/udpnet"
)

// tapNet wraps a transport so a test sees every datagram its sites hand
// to the network and every datagram their pumps take from it, and may
// drop datagrams at the sender.
type tapNet struct {
	transport.Transport
	onSend func(from, to transport.NodeID, payload []byte)
	onRecv func(d transport.Datagram)
	drop   func(from, to transport.NodeID) bool
}

func (n tapNet) Endpoint(id transport.NodeID) transport.Endpoint {
	return tapEndpoint{n.Transport.Endpoint(id), n}
}

type tapEndpoint struct {
	transport.Endpoint
	n tapNet
}

func (e tapEndpoint) Send(to transport.NodeID, payload []byte) {
	if e.n.onSend != nil {
		e.n.onSend(e.ID(), to, payload)
	}
	if e.n.drop != nil && e.n.drop(e.ID(), to) {
		return
	}
	e.Endpoint.Send(to, payload)
}

func (e tapEndpoint) Recv() (transport.Datagram, bool) {
	d, ok := e.Endpoint.Recv()
	if ok && e.n.onRecv != nil {
		e.n.onRecv(d)
	}
	return d, ok
}

// countTracer counts the computations spawned and each handler's
// executions. It counts by handler, not by spec: a tracer sees the spec a
// Derive request resolved to, never the request a site holds.
type countTracer struct {
	nopTracer
	mu     sync.Mutex
	spawns int
	runs   map[*core.Handler]int
}

func (tr *countTracer) Spawned(uint64, *core.Spec) {
	tr.mu.Lock()
	tr.spawns++
	tr.mu.Unlock()
}

func (tr *countTracer) HandlerStart(_, _ uint64, _ *core.EventType, h *core.Handler) {
	tr.mu.Lock()
	if tr.runs == nil {
		tr.runs = make(map[*core.Handler]int)
	}
	tr.runs[h]++
	tr.mu.Unlock()
}

// total is the number of computations spawned.
func (tr *countTracer) total() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.spawns
}

// calls is the number of handler executions, all handlers together.
func (tr *countTracer) calls() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, k := range tr.runs {
		n += k
	}
	return n
}

// ran is the number of executions of h.
func (tr *countTracer) ran(h *core.Handler) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.runs[h]
}

// startSites starts one site per id, all in one view, with the failure
// detector off. Deliveries are counted per site.
func startSites(t *testing.T, net transport.Transport, n int, mutate func(id transport.NodeID, cfg *Config)) ([]*Site, []*atomic.Int64) {
	t.Helper()
	sites, delivered := newSites(t, net, n, mutate)
	for _, s := range sites {
		s.Start()
	}
	return sites, delivered
}

// newSites is startSites without the Start, for a test that tunes the
// sites first.
func newSites(t *testing.T, net transport.Transport, n int, mutate func(id transport.NodeID, cfg *Config)) ([]*Site, []*atomic.Int64) {
	t.Helper()
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	sites := make([]*Site, n)
	delivered := make([]*atomic.Int64, n)
	for i, id := range ids {
		count := new(atomic.Int64)
		delivered[i] = count
		cfg := Config{
			Net: net, ID: id, InitialView: NewView(ids...), FDInterval: -1,
			Deliver: func(transport.NodeID, []byte) { count.Add(1) },
		}
		if mutate != nil {
			mutate(id, &cfg)
		}
		sites[i] = NewSite(cfg)
	}
	t.Cleanup(func() {
		for i, s := range sites {
			s.Stop()
			for _, err := range s.Errs() {
				t.Errorf("site %d: %v", i, err)
			}
		}
	})
	return sites, delivered
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// ackOnly reports whether a datagram's frames are all acks.
func ackOnly(p []byte) bool {
	for len(p) > 0 {
		f, rest, err := decodeFrame(p)
		if err != nil || (f.Kind != dgAck && f.Kind != dgSack) {
			return false
		}
		p = rest
	}
	return true
}

// TestDatagramsPerABcast pins the datagram diet on a quiet 3-site group:
// one atomic broadcast, start to finish on every site, costs at most 7
// datagrams, 9 computations and 42 handler executions on all sites
// together, none of the datagrams from a site to itself. A relay of
// ordered casts, a coordinator sending itself ACCEPT, ACCEPTED and
// DECIDE, a proposal forwarded to a coordinator that did not solicit it,
// an ack per data frame, or a DECIDE to acceptors that decide on the
// voted ACCEPT goes past them; so does a handler run for a message
// another layer owns (68 executions when every delivery ran every
// layer's handler).
func TestDatagramsPerABcast(t *testing.T) {
	sim := simnet.New(simnet.Config{Nodes: 3})
	defer sim.Close()
	var selfSends, acks atomic.Int64
	net := tapNet{
		Transport: sim,
		onSend: func(from, to transport.NodeID, p []byte) {
			if from == to {
				selfSends.Add(1)
			}
			if ackOnly(p) {
				acks.Add(1)
			}
		},
	}
	tracers := make([]*countTracer, 3)
	sites, delivered := startSites(t, net, 3, func(id transport.NodeID, cfg *Config) {
		tracers[id] = &countTracer{}
		cfg.Tracer = tracers[id]
		cfg.RTO = time.Hour // a retransmission would be a datagram the protocol did not need
	})

	const ops = 30
	for k := 0; k < ops; k++ {
		// One op at a time, from each site in turn, so every pairing of
		// origin and coordinator is in the mean.
		if err := sites[k%3].ABcast([]byte(fmt.Sprintf("op%d", k))); err != nil {
			t.Fatal(err)
		}
		for i := range sites {
			waitUntil(t, "delivery", func() bool { return delivered[i].Load() == int64(k+1) })
		}
	}
	// The last frames may still be in flight after the last delivery.
	sent := func() uint64 { return sim.Stats().Sent }
	for n := sent(); ; n = sent() {
		time.Sleep(20 * time.Millisecond)
		if sent() == n {
			break
		}
	}

	for _, s := range sites {
		s.Stop() // every datagram a pump took has been spawned
	}

	perOp := float64(sent()) / ops
	comps, calls := 0, 0
	for _, tr := range tracers {
		comps += tr.total()
		calls += tr.calls()
	}
	compsPerOp, callsPerOp := float64(comps)/ops, float64(calls)/ops
	t.Logf("%.1f datagrams per ABcast, %d ack-only, %.1f computations and %.1f handler executions per ABcast",
		perOp, acks.Load(), compsPerOp, callsPerOp)
	if perOp > 7 {
		t.Errorf("%.1f datagrams per ABcast, want at most 7", perOp)
	}
	if compsPerOp > 9 {
		t.Errorf("%.1f computations per ABcast, want at most 9", compsPerOp)
	}
	if callsPerOp > 42 {
		t.Errorf("%.1f handler executions per ABcast, want at most 42", callsPerOp)
	}
	if n := selfSends.Load(); n != 0 {
		t.Errorf("%d datagrams sent from a site to itself", n)
	}
}

// TestSelfDeliveryBypassesTransport: a site's frames to itself never
// reach the transport or the ARQ, so a lone site keeps ordering and
// delivering its own broadcasts while its network endpoint is down.
func TestSelfDeliveryBypassesTransport(t *testing.T) {
	sim := simnet.New(simnet.Config{Nodes: 1})
	defer sim.Close()
	sites, delivered := startSites(t, sim, 1, nil)
	s := sites[0]

	if err := s.ABcast([]byte("up")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "delivery with the endpoint up", func() bool { return delivered[0].Load() == 1 })

	sim.Crash(0)
	for k := 0; k < 5; k++ {
		if err := s.ABcast([]byte("down")); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "deliveries with the endpoint down", func() bool { return delivered[0].Load() == 6 })
	if !sim.Restart(0) {
		t.Fatal("restart refused")
	}
	if err := s.ABcast([]byte("up again")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "delivery after the restart", func() bool { return delivered[0].Load() == 7 })

	if st := sim.Stats(); st.Sent != 0 {
		t.Errorf("a lone site sent %d datagrams", st.Sent)
	}
	s.Stop() // computations are over: RelComm's state may be read
	if l := s.relcomm.peers[0]; l != nil {
		t.Errorf("an ARQ link to the site itself: %+v", l.State())
	}
}

// TestEgressSplitsAtMaxDatagram: frames for one peer that do not fit one
// datagram leave as two, in NetSend order, and the transport refuses
// neither.
func TestEgressSplitsAtMaxDatagram(t *testing.T) {
	nets, err := udpnet.NewCluster(2)
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer nets[0].Close()
	defer nets[1].Close()
	if maxDatagram > udpnet.MaxPayload {
		t.Fatalf("maxDatagram %d exceeds udpnet.MaxPayload %d", maxDatagram, udpnet.MaxPayload)
	}

	no := newNetOut(nets[0].Endpoint(0))
	stack := core.NewStack(cc.NewVCABasic())
	stack.Register(no.mp)
	ev := newEvents()
	stack.Bind(ev.NetSend, no.send)
	big := bytes.Repeat([]byte{'x'}, 40<<10)
	err = stack.Isolated(core.Access(no.mp), func(ctx *core.Context) error {
		for _, f := range []outFrame{
			{to: 1, frame: frame{Kind: dgAck, Epoch: 9, Seq: 1}},
			{to: 1, frame: frame{Kind: dgData, Epoch: 9, Seq: 2, Inner: big}},
			{to: 1, frame: frame{Kind: dgData, Epoch: 9, Seq: 3, Inner: big}},
			{to: 1, frame: frame{Kind: dgAck, Epoch: 9, Seq: 4}},
		} {
			if err := ctx.Trigger(ev.NetSend, f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if self := no.flush(); len(self) != 0 {
		t.Fatalf("%d self datagrams from frames addressed to site 1", len(self))
	}

	var seqs [][]uint64
	for len(seqs) < 2 {
		d, ok := nets[1].Endpoint(1).Recv()
		if !ok {
			t.Fatal("endpoint closed")
		}
		var in []uint64
		for p := d.Payload; len(p) > 0; {
			f, rest, err := decodeFrame(p)
			if err != nil {
				t.Fatal(err)
			}
			in, p = append(in, f.Seq), rest
		}
		seqs = append(seqs, in)
	}
	// UDP may swap the two datagrams; frame order within each is fixed.
	if len(seqs[0]) != 2 {
		seqs[0], seqs[1] = seqs[1], seqs[0]
	}
	if fmt.Sprint(seqs) != "[[1 2] [3 4]]" {
		t.Errorf("frames arrived as %v, want [[1 2] [3 4]]", seqs)
	}
	if st := nets[0].Stats(); st.Sent != 2 || st.DroppedOversize != 0 {
		t.Errorf("sent %d datagrams, %d refused as oversize; want 2 and 0", st.Sent, st.DroppedOversize)
	}
}

// TestManyAcksInOneDatagramUnderVCABound: an ack-only datagram runs under
// the data path's derived spec, whose visit bounds are the site's loose
// visitBound. One datagram carrying three acks opens the flow-control
// window three times, so its computation visits NetOut three times.
func TestManyAcksInOneDatagramUnderVCABound(t *testing.T) {
	sim := simnet.New(simnet.Config{Nodes: 2})
	defer sim.Close()
	// Site 0 is real; the test plays peer 1 on the raw endpoint.
	s := NewSite(Config{
		Net: sim, ID: 0, InitialView: NewView(0, 1), FDInterval: -1, RTO: time.Hour,
		Controller: cc.NewVCABound(),
	})
	s.relcomm.window = 3
	s.Start()
	defer s.Stop()
	peer := sim.Node(1)

	recvSeqs := func(want int) []uint64 {
		var seqs []uint64
		for len(seqs) < want {
			d, ok := peer.Recv()
			if !ok {
				t.Fatal("peer endpoint closed")
			}
			for p := d.Payload; len(p) > 0; {
				f, rest, err := decodeFrame(p)
				if err != nil {
					t.Fatal(err)
				}
				if p = rest; f.Kind == dgData {
					seqs = append(seqs, f.Seq)
				}
			}
		}
		return seqs
	}

	for k := 0; k < 6; k++ {
		if err := s.RBcast([]byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	if got := recvSeqs(3); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("first window carried seqs %v, want [1 2 3]", got)
	}
	epoch := s.relcomm.epoch // constant for the RelComm's life
	sim.Node(1).Send(0, bytes.Join([][]byte{ackFrame(epoch, 1), ackFrame(epoch, 2), ackFrame(epoch, 3)}, nil))
	if got := recvSeqs(3); fmt.Sprint(got) != "[4 5 6]" {
		t.Fatalf("after three acks in one datagram: seqs %v, want [4 5 6]", got)
	}
	s.Stop()
	for _, err := range s.Errs() {
		t.Errorf("site 0: %v", err)
	}
}
