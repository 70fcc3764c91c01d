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
// to the network and every datagram their pumps take from it.
type tapNet struct {
	transport.Transport
	onSend func(from, to transport.NodeID, payload []byte)
	onRecv func(d transport.Datagram)
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
	e.Endpoint.Send(to, payload)
}

func (e tapEndpoint) Recv() (transport.Datagram, bool) {
	d, ok := e.Endpoint.Recv()
	if ok && e.n.onRecv != nil {
		e.n.onRecv(d)
	}
	return d, ok
}

// specTracer counts the computations spawned under each spec.
type specTracer struct {
	nopTracer
	mu     sync.Mutex
	spawns map[*core.Spec]int
}

func (tr *specTracer) Spawned(_ uint64, spec *core.Spec) {
	tr.mu.Lock()
	tr.spawns[spec]++
	tr.mu.Unlock()
}

func (tr *specTracer) count(spec *core.Spec) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.spawns[spec]
}

// startSites starts one site per id, all in one view, with the failure
// detector off. Deliveries are counted per site.
func startSites(t *testing.T, net transport.Transport, n int, mutate func(id transport.NodeID, cfg *Config)) ([]*Site, []*atomic.Int64) {
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
		sites[i].Start()
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

// TestDatagramsPerABcast pins the datagram diet on a quiet 3-site group:
// one atomic broadcast, start to finish on every site, costs at most 22
// datagrams (46 before frames shared datagrams), none of them from a site
// to itself, and every ack-only datagram runs under the ack spec.
func TestDatagramsPerABcast(t *testing.T) {
	sim := simnet.New(simnet.Config{Nodes: 3})
	defer sim.Close()
	var selfSends, ackOnly atomic.Int64
	net := tapNet{
		Transport: sim,
		onSend: func(from, to transport.NodeID, _ []byte) {
			if from == to {
				selfSends.Add(1)
			}
		},
		onRecv: func(d transport.Datagram) {
			if classify(d.Payload) == classAck {
				ackOnly.Add(1)
			}
		},
	}
	tracers := make([]*specTracer, 3)
	sites, delivered := startSites(t, net, 3, func(id transport.NodeID, cfg *Config) {
		tracers[id] = &specTracer{spawns: make(map[*core.Spec]int)}
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
	// The last acks are still in flight after the last delivery.
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
	t.Logf("%.1f datagrams per ABcast, %d ack-only", perOp, ackOnly.Load())
	if perOp > 22 {
		t.Errorf("%.1f datagrams per ABcast, want at most 22", perOp)
	}
	if n := selfSends.Load(); n != 0 {
		t.Errorf("%d datagrams sent from a site to itself", n)
	}
	narrow := 0
	for i, s := range sites {
		narrow += tracers[i].count(s.specs[entAck])
	}
	if ackOnly.Load() == 0 || int64(narrow) != ackOnly.Load() {
		t.Errorf("%d ack-only datagrams received, %d computations spawned under the ack spec", ackOnly.Load(), narrow)
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
	if n := len(s.relcomm.pending[0]); n != 0 {
		t.Errorf("%d self-addressed frames buffered for retransmission", n)
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
			{to: 1, kind: dgAck, epoch: 9, seq: 1},
			{to: 1, kind: dgData, epoch: 9, seq: 2, inner: big},
			{to: 1, kind: dgData, epoch: 9, seq: 3, inner: big},
			{to: 1, kind: dgAck, epoch: 9, seq: 4},
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
			in, p = append(in, f.seq), rest
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

// TestManyAcksInOneDatagramUnderVCABound: the ack spec's visit bounds
// come from Config.Bound. One datagram carrying three acks opens the
// flow-control window three times, so its computation visits NetOut
// three times — more than the 2 the spec used to hard-code.
func TestManyAcksInOneDatagramUnderVCABound(t *testing.T) {
	sim := simnet.New(simnet.Config{Nodes: 2})
	defer sim.Close()
	// Site 0 is real; the test plays peer 1 on the raw endpoint.
	s := NewSite(Config{
		Net: sim, ID: 0, InitialView: NewView(0, 1), FDInterval: -1, RTO: time.Hour,
		Controller: cc.NewVCABound(), SpecKind: core.SpecBound, SendWindow: 3,
	})
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
				if p = rest; f.kind == dgData {
					seqs = append(seqs, f.seq)
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
	acks := appendAck(appendAck(appendAck(nil, epoch, 1), epoch, 2), epoch, 3)
	sim.Node(1).Send(0, acks)
	if got := recvSeqs(3); fmt.Sprint(got) != "[4 5 6]" {
		t.Fatalf("after three acks in one datagram: seqs %v, want [4 5 6]", got)
	}
	s.Stop()
	for _, err := range s.Errs() {
		t.Errorf("site 0: %v", err)
	}
}
