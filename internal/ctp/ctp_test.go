package ctp_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/arq"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctp"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/faultnet"
)

// pair builds two connected endpoints over one faultnet-wrapped simnet
// with mirrored configs, recording B's deliveries.
type pair struct {
	t     *testing.T
	net   *faultnet.Net
	a, b  *ctp.Endpoint
	mu    sync.Mutex
	deliv [][]byte
}

// newPair links the endpoints with faults r, seeded by seed.
func newPair(t *testing.T, seed int64, r faultnet.Rates, mutate func(*ctp.Config)) *pair {
	t.Helper()
	p := &pair{t: t, net: faultnet.New(faultnet.Config{Inner: simnet.New(simnet.Config{Nodes: 2}), Seed: seed, Rates: r})}
	mk := func(id, peer simnet.NodeID, deliver func([]byte)) *ctp.Endpoint {
		cfg := ctp.Config{
			Net: p.net, ID: id, Peer: peer,
			Reliable: true, Ordered: true, Checksummed: true,
			RTO: 10 * time.Millisecond, MSS: 64,
			Deliver: deliver,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		e, err := ctp.NewEndpoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		return e
	}
	p.a = mk(0, 1, nil)
	p.b = mk(1, 0, func(msg []byte) {
		p.mu.Lock()
		p.deliv = append(p.deliv, append([]byte(nil), msg...))
		p.mu.Unlock()
	})
	t.Cleanup(func() {
		p.a.Stop()
		p.b.Stop()
		p.net.Close()
		for _, err := range p.a.Errs() {
			t.Errorf("endpoint A: %v", err)
		}
		for _, err := range p.b.Errs() {
			t.Errorf("endpoint B: %v", err)
		}
	})
	return p
}

func (p *pair) delivered() [][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([][]byte, len(p.deliv))
	copy(out, p.deliv)
	return out
}

func (p *pair) waitDelivered(n int) {
	p.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(p.delivered()) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	p.t.Fatalf("timeout: delivered %d of %d", len(p.delivered()), n)
}

func TestCleanLinkSmallMessages(t *testing.T) {
	p := newPair(t, 1, faultnet.Rates{}, nil)
	for i := 0; i < 5; i++ {
		if err := p.a.Send([]byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	p.waitDelivered(5)
	for i, m := range p.delivered() {
		if string(m) != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("delivered[%d] = %q", i, m)
		}
	}
}

func TestLargeMessageFragmentsAndReassembles(t *testing.T) {
	p := newPair(t, 2, faultnet.Rates{}, nil)
	big := make([]byte, 10_000) // 157 fragments at MSS 64
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := p.a.Send(big); err != nil {
		t.Fatal(err)
	}
	p.waitDelivered(1)
	if got := p.delivered()[0]; !bytes.Equal(got, big) {
		t.Fatalf("reassembly corrupted the message (len %d vs %d)", len(got), len(big))
	}
}

func TestEmptyMessage(t *testing.T) {
	p := newPair(t, 3, faultnet.Rates{}, nil)
	if err := p.a.Send(nil); err != nil {
		t.Fatal(err)
	}
	p.waitDelivered(1)
	if len(p.delivered()[0]) != 0 {
		t.Fatalf("empty message grew: %v", p.delivered()[0])
	}
}

func TestLossyLinkReliableOrdered(t *testing.T) {
	p := newPair(t, 4, faultnet.Rates{
		Drop: 0.25, Delay: 1, DelayMin: 50 * time.Microsecond, DelayMax: 500 * time.Microsecond,
	}, nil)
	const n = 20
	for i := 0; i < n; i++ {
		if err := p.a.Send([]byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	p.waitDelivered(n)
	for i, m := range p.delivered()[:n] {
		if string(m) != fmt.Sprintf("m%02d", i) {
			t.Fatalf("order broken at %d: %q", i, m)
		}
	}
	if p.a.Retransmits() == 0 {
		t.Fatal("no retransmissions on a lossy (25 percent) link is implausible")
	}
}

func TestCorruptedLinkChecksumRepairs(t *testing.T) {
	p := newPair(t, 5, faultnet.Rates{
		Corrupt: 0.25, Delay: 1, DelayMin: 50 * time.Microsecond, DelayMax: 300 * time.Microsecond,
	}, nil)
	const n = 15
	want := make([][]byte, n)
	for i := range want {
		want[i] = []byte(fmt.Sprintf("payload-%02d-%d", i, i*i))
		if err := p.a.Send(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.waitDelivered(n)
	for i, m := range p.delivered()[:n] {
		if !bytes.Equal(m, want[i]) {
			t.Fatalf("corrupted payload delivered at %d: %q", i, m)
		}
	}
	if p.b.BadFrames() == 0 && p.a.BadFrames() == 0 {
		t.Fatal("no checksum rejections on a corrupting (25 percent) link is implausible")
	}
}

func TestUnreliableCompositionDropsAreSilent(t *testing.T) {
	p := newPair(t, 6, faultnet.Rates{Drop: 0.5}, func(cfg *ctp.Config) {
		cfg.Reliable = false
		cfg.Ordered = false
		cfg.Checksummed = false
	})
	const n = 200
	for i := 0; i < n; i++ {
		if err := p.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	got := len(p.delivered())
	if got == 0 || got == n {
		t.Fatalf("unreliable datagram service delivered %d of %d — expected partial loss", got, n)
	}
	if p.a.Retransmits() != 0 {
		t.Fatal("unreliable composition must not retransmit")
	}
}

// tapNet reports every datagram an endpoint sends to onSend.
type tapNet struct {
	transport.Transport
	onSend func(from transport.NodeID, payload []byte)
}

func (n tapNet) Endpoint(id transport.NodeID) transport.Endpoint {
	return tapEndpoint{n.Transport.Endpoint(id), n.onSend}
}

type tapEndpoint struct {
	transport.Endpoint
	onSend func(from transport.NodeID, payload []byte)
}

func (e tapEndpoint) Send(to transport.NodeID, payload []byte) {
	e.onSend(e.ID(), payload)
	e.Endpoint.Send(to, payload)
}

// TestOneWayStreamAcksEconomically: a receiver that sends no data back
// is acked by half windows and ticks, not frame by frame. 500 messages
// from A, many times ARQ's window, all reach B in order, and B sends
// fewer ack-only datagrams than half of A's data frames.
func TestOneWayStreamAcksEconomically(t *testing.T) {
	const msgs = 500
	sim := simnet.New(simnet.Config{Nodes: 2})
	defer sim.Close()
	// Without Checksum, each datagram is one ARQ frame, its kind first.
	var data, acks, other atomic.Int64
	net := tapNet{Transport: sim, onSend: func(from transport.NodeID, p []byte) {
		switch {
		case from == 0 && p[0] == arq.KindData:
			data.Add(1)
		case from == 1 && (p[0] == arq.KindAck || p[0] == arq.KindSack):
			acks.Add(1)
		default:
			other.Add(1)
		}
	}}
	var mu sync.Mutex
	var got []string
	mk := func(id, peer transport.NodeID, deliver func([]byte)) *ctp.Endpoint {
		e, err := ctp.NewEndpoint(ctp.Config{
			Net: net, ID: id, Peer: peer,
			Reliable: true, Ordered: true,
			Deliver: deliver,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		return e
	}
	a := mk(0, 1, nil)
	b := mk(1, 0, func(m []byte) { mu.Lock(); got = append(got, string(m)); mu.Unlock() })
	for i := 0; i < msgs; i++ {
		if err := a.Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= msgs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: delivered %d of %d", n, msgs)
		}
		time.Sleep(time.Millisecond)
	}
	a.Stop()
	b.Stop()
	for _, err := range append(a.Errs(), b.Errs()...) {
		t.Error(err)
	}

	for i, m := range got {
		if m != fmt.Sprintf("m%d", i) {
			t.Fatalf("delivered[%d] = %q: order broken", i, m)
		}
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d, want %d", len(got), msgs)
	}
	t.Logf("%d data frames, %d ack-only datagrams back, %d retransmitted", data.Load(), acks.Load(), a.Retransmits())
	if n := other.Load(); n != 0 {
		t.Errorf("%d datagrams were neither A's data nor B's acks", n)
	}
	if 2*acks.Load() >= data.Load() {
		t.Errorf("%d ack-only datagrams for %d data frames, want fewer than half", acks.Load(), data.Load())
	}
}

func TestOrderedRequiresReliable(t *testing.T) {
	net := simnet.New(simnet.Config{Nodes: 2})
	defer net.Close()
	_, err := ctp.NewEndpoint(ctp.Config{Net: net, ID: 0, Peer: 1, Ordered: true})
	if err == nil {
		t.Fatal("Ordered without Reliable must be rejected")
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	var mu sync.Mutex
	var aGot [][]byte
	net := faultnet.New(faultnet.Config{Inner: simnet.New(simnet.Config{Nodes: 2}), Seed: 8, Rates: faultnet.Rates{Drop: 0.1}})
	defer net.Close()
	mk := func(id, peer simnet.NodeID, deliver func([]byte)) *ctp.Endpoint {
		e, err := ctp.NewEndpoint(ctp.Config{
			Net: net, ID: id, Peer: peer,
			Reliable: true, Ordered: true, Checksummed: true,
			RTO: 10 * time.Millisecond, Deliver: deliver,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		return e
	}
	var bGot [][]byte
	a := mk(0, 1, func(m []byte) { mu.Lock(); aGot = append(aGot, m); mu.Unlock() })
	b := mk(1, 0, func(m []byte) { mu.Lock(); bGot = append(bGot, m); mu.Unlock() })
	defer a.Stop()
	defer b.Stop()
	for i := 0; i < 10; i++ {
		if err := a.Send([]byte(fmt.Sprintf("a→b %d", i))); err != nil {
			t.Fatal(err)
		}
		if err := b.Send([]byte(fmt.Sprintf("b→a %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		na, nb := len(aGot), len(bGot)
		mu.Unlock()
		if na >= 10 && nb >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: a=%d b=%d", na, nb)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAllControllerSpecCombos runs the reliable-ordered-checksummed stack
// under every isolated variant, each on the same derived specs.
func TestAllControllerSpecCombos(t *testing.T) {
	combos := []struct {
		name string
		mk   func() core.Controller
	}{
		{"vca-basic", func() core.Controller { return cc.NewVCABasic() }},
		{"vca-bound", func() core.Controller { return cc.NewVCABound() }},
		{"vca-route", func() core.Controller { return cc.NewVCARoute() }},
		{"serial", func() core.Controller { return cc.NewSerial() }},
		{"vca-rw", func() core.Controller { return cc.NewVCARW() }},
	}
	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			p := newPair(t, 9, faultnet.Rates{Drop: 0.15}, func(cfg *ctp.Config) {
				cfg.Controller = combo.mk()
			})
			for i := 0; i < 8; i++ {
				if err := p.a.Send([]byte(fmt.Sprintf("c%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			p.waitDelivered(8)
			for i, m := range p.delivered()[:8] {
				if string(m) != fmt.Sprintf("c%d", i) {
					t.Fatalf("order broken: %q at %d", m, i)
				}
			}
		})
	}
}

// TestStreamIntegrityProperty: any batch of random messages over a lossy,
// corrupting, reordering link arrives complete, uncorrupted and in order.
func TestStreamIntegrityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newPair(t, seed, faultnet.Rates{
			Drop: 0.15, Corrupt: 0.1,
			Delay: 1, DelayMin: 20 * time.Microsecond, DelayMax: 2 * time.Millisecond,
		}, nil)
		n := 3 + rng.Intn(6)
		want := make([][]byte, n)
		for i := range want {
			want[i] = make([]byte, rng.Intn(300))
			rng.Read(want[i])
			if err := p.a.Send(want[i]); err != nil {
				t.Error(err)
			}
		}
		p.waitDelivered(n)
		for i, m := range p.delivered()[:n] {
			if !bytes.Equal(m, want[i]) {
				t.Errorf("seed %d: message %d corrupted or reordered", seed, i)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

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

// spawnerTracer records the goroutine every computation was spawned on.
type spawnerTracer struct {
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
func (*spawnerTracer) HandlerStart(uint64, uint64, *core.EventType, *core.Handler) {}
func (*spawnerTracer) HandlerEnd(uint64, uint64, *core.Handler)                    {}
func (*spawnerTracer) Completed(uint64)                                            {}
func (*spawnerTracer) Aborted(uint64)                                              {}

// TestPumpRunsEveryDatagram pins the one-pump shape structurally: however
// many datagrams flow, an endpoint's computations are spawned on its pump
// and its ticker, plus the one goroutine that calls Send. A pool of pump
// workers, or a goroutine per datagram or per tick, spawns on more.
func TestPumpRunsEveryDatagram(t *testing.T) {
	const endpoints, pumps, tickers, callers, msgs = 2, 1, 1, 1, 300
	tr := &spawnerTracer{on: map[uint64]bool{}}
	p := newPair(t, 5, faultnet.Rates{Drop: 0.05}, func(cfg *ctp.Config) { cfg.Tracer = tr })
	for i := 0; i < msgs; i++ {
		if err := p.a.Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	p.waitDelivered(msgs)

	tr.mu.Lock()
	defer tr.mu.Unlock()
	bound := endpoints*(pumps+tickers) + callers
	t.Logf("%d computations spawned on %d goroutines (bound %d)", tr.spawns, len(tr.on), bound)
	if len(tr.on) > bound {
		t.Fatalf("%d computations spawned on %d distinct goroutines, want at most %d = %d endpoints × (%d pump + %d ticker) + %d caller",
			tr.spawns, len(tr.on), bound, endpoints, pumps, tickers, callers)
	}
	if tr.spawns < 10*bound {
		t.Fatalf("only %d computations spawned: too few to tell one pump from a goroutine per datagram", tr.spawns)
	}
}
