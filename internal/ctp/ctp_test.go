package ctp_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctp"
	"repro/internal/simnet"
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

// TestDeadPeerSurfacesConnFailure: with a retry cap, frames sent to a
// peer that never acks are eventually abandoned with a typed connection
// failure instead of retransmitting forever.
func TestDeadPeerSurfacesConnFailure(t *testing.T) {
	net := simnet.New(simnet.Config{Nodes: 2})
	defer net.Close()
	e, err := ctp.NewEndpoint(ctp.Config{
		Net: net, ID: 0, Peer: 1,
		Reliable: true,
		RTO:      2 * time.Millisecond, MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	if err := e.Send([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(e.Failed()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no connection failure surfaced; retransmits = %d", e.Retransmits())
		}
		time.Sleep(time.Millisecond)
	}
	f := e.Failed()[0]
	if f.Retries != 3 {
		t.Fatalf("failure = %+v, want 3 retries", f)
	}
	// The failure also surfaces through the computation error log.
	found := false
	for _, err := range e.Errs() {
		var cf *ctp.ConnFailedError
		if errors.As(err, &cf) {
			found = true
		}
	}
	if !found {
		t.Fatal("ConnFailedError not recorded in Errs")
	}
	// Bounded retries: the abandoned frame stops consuming the wire.
	quiesced := e.Retransmits()
	time.Sleep(50 * time.Millisecond)
	if e.Retransmits() != quiesced {
		t.Fatal("retransmissions continued after the frame was abandoned")
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
// under every isolated variant.
func TestAllControllerSpecCombos(t *testing.T) {
	combos := []struct {
		name string
		mk   func() core.Controller
		kind core.SpecKind
	}{
		{"vca-basic", func() core.Controller { return cc.NewVCABasic() }, core.SpecBasic},
		{"vca-bound", func() core.Controller { return cc.NewVCABound() }, core.SpecBound},
		{"vca-route", func() core.Controller { return cc.NewVCARoute() }, core.SpecRoute},
		{"serial", func() core.Controller { return cc.NewSerial() }, core.SpecBasic},
		{"tso", func() core.Controller { return cc.NewTSO() }, core.SpecBasic},
		{"vca-rw", func() core.Controller { return cc.NewVCARW() }, core.SpecBasic},
	}
	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			p := newPair(t, 9, faultnet.Rates{Drop: 0.15}, func(cfg *ctp.Config) {
				cfg.Controller = combo.mk()
				cfg.SpecKind = combo.kind
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
