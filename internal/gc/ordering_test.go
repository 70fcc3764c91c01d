package gc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport/faultnet"
	"repro/internal/wire"
)

// TestFifoPerOriginOrder: with heavy reordering delays, each origin's
// FBcast stream is delivered in send order at every site.
func TestFifoPerOriginOrder(t *testing.T) {
	net := faultnet.New(faultnet.Config{
		Inner: simnet.New(simnet.Config{Nodes: 3}), Seed: 110,
		Rates: faultnet.Rates{Delay: 1, DelayMin: 10 * time.Microsecond, DelayMax: 2 * time.Millisecond},
	})
	defer net.Close()
	view := NewView(0, 1, 2)
	var mu sync.Mutex
	got := map[simnet.NodeID]map[simnet.NodeID][]string{} // site → origin → msgs
	sites := map[simnet.NodeID]*Site{}
	for i := simnet.NodeID(0); i < 3; i++ {
		i := i
		got[i] = map[simnet.NodeID][]string{}
		sites[i] = NewSite(Config{
			Net: net, ID: i, InitialView: view, FDInterval: -1,
			FDeliver: func(from simnet.NodeID, data []byte) {
				mu.Lock()
				got[i][from] = append(got[i][from], string(data))
				mu.Unlock()
			},
		})
		sites[i].Start()
	}
	defer func() {
		for id, s := range sites {
			s.Stop()
			for _, err := range s.Errs() {
				t.Errorf("site %d: %v", id, err)
			}
		}
	}()

	const perSite = 8
	var wg sync.WaitGroup
	for id := simnet.NodeID(0); id < 3; id++ {
		wg.Add(1)
		go func(id simnet.NodeID) {
			defer wg.Done()
			for k := 0; k < perSite; k++ {
				if err := sites[id].FBcast([]byte(fmt.Sprintf("s%d-%d", id, k))); err != nil {
					t.Error(err)
				}
			}
		}(id)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	complete := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, perOrigin := range got {
			total := 0
			for _, msgs := range perOrigin {
				total += len(msgs)
			}
			if total < 3*perSite {
				return false
			}
		}
		return true
	}
	for !complete() {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for FIFO deliveries")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for site, perOrigin := range got {
		for origin, msgs := range perOrigin {
			for k, m := range msgs {
				if m != fmt.Sprintf("s%d-%d", origin, k) {
					t.Fatalf("site %d, origin %d: stream %v violates FIFO", site, origin, msgs)
				}
			}
		}
	}
}

// causalUnit drives one Causal microprotocol directly with crafted
// deliveries, for the deterministic textbook scenario.
type causalUnit struct {
	s    *core.Stack
	c    *Causal
	ev   *events
	spec *core.Spec
	got  []string
}

func newCausalUnit(t *testing.T, self simnet.NodeID) *causalUnit {
	t.Helper()
	u := &causalUnit{ev: newEvents()}
	u.s = core.NewStack(cc.NewVCABasic())
	u.c = newCausal(self, u.ev, func(_ simnet.NodeID, data []byte) {
		u.got = append(u.got, string(data))
	})
	capture := core.NewMicroprotocol("capture")
	hB := capture.AddHandler("bcast", func(*core.Context, core.Message) error { return nil })
	u.s.Register(u.c.mp, capture)
	u.s.Bind(u.ev.Bcast, hB)
	u.s.Bind(u.ev.DeliverOut, u.c.hRecv)
	u.s.Bind(u.ev.CausalEv, u.c.hBcast)
	u.spec = core.Access(u.c.mp, capture)
	return u
}

// craftCausal builds the CastMsg the causal layer would broadcast.
func craftCausal(origin simnet.NodeID, seq uint64, vc map[simnet.NodeID]uint64, data string) CastMsg {
	w := wire.NewWriter(64)
	encodeVC(w, vc)
	w.BytesPrefixed([]byte(data))
	return CastMsg{
		ID:   MsgID{Origin: origin, Seq: seq},
		Kind: castCausal,
		Data: append([]byte(nil), w.Bytes()...),
	}
}

func (u *causalUnit) feed(t *testing.T, m CastMsg) {
	t.Helper()
	if err := u.s.External(u.spec, u.ev.DeliverOut, m); err != nil {
		t.Fatal(err)
	}
}

// TestCausalBuffersUntilPastDelivered is the textbook case: site C gets
// m2 (B's reply to m1) before m1 itself; m2 must wait.
func TestCausalBuffersUntilPastDelivered(t *testing.T) {
	u := newCausalUnit(t, 2) // we are site C
	m1 := craftCausal(0, 1, map[simnet.NodeID]uint64{0: 1}, "m1")
	m2 := craftCausal(1, 1, map[simnet.NodeID]uint64{0: 1, 1: 1}, "m2") // B saw m1

	u.feed(t, m2)
	if len(u.got) != 0 || u.c.Pending() != 1 {
		t.Fatalf("m2 delivered before its causal past: got=%v pending=%d", u.got, u.c.Pending())
	}
	u.feed(t, m1)
	if len(u.got) != 2 || u.got[0] != "m1" || u.got[1] != "m2" {
		t.Fatalf("causal order broken: %v", u.got)
	}
	if u.c.Pending() != 0 {
		t.Fatalf("pending = %d", u.c.Pending())
	}
}

func TestCausalDuplicateDropped(t *testing.T) {
	u := newCausalUnit(t, 2)
	m1 := craftCausal(0, 1, map[simnet.NodeID]uint64{0: 1}, "m1")
	u.feed(t, m1)
	u.feed(t, m1)
	if len(u.got) != 1 {
		t.Fatalf("duplicate delivered: %v", u.got)
	}
}

func TestCausalConcurrentMessagesAnyOrder(t *testing.T) {
	u := newCausalUnit(t, 2)
	// Two concurrent messages (neither saw the other): both deliverable
	// immediately, in arrival order.
	ma := craftCausal(0, 1, map[simnet.NodeID]uint64{0: 1}, "ma")
	mb := craftCausal(1, 1, map[simnet.NodeID]uint64{1: 1}, "mb")
	u.feed(t, mb)
	u.feed(t, ma)
	if len(u.got) != 2 || u.got[0] != "mb" || u.got[1] != "ma" {
		t.Fatalf("got %v", u.got)
	}
}

func TestCausalSenderFIFOGap(t *testing.T) {
	u := newCausalUnit(t, 2)
	// Second message from A arrives first: it must wait for the first
	// (causal order subsumes sender FIFO).
	a2 := craftCausal(0, 2, map[simnet.NodeID]uint64{0: 2}, "a2")
	a1 := craftCausal(0, 1, map[simnet.NodeID]uint64{0: 1}, "a1")
	u.feed(t, a2)
	if len(u.got) != 0 {
		t.Fatalf("gap jumped: %v", u.got)
	}
	u.feed(t, a1)
	if len(u.got) != 2 || u.got[0] != "a1" || u.got[1] != "a2" {
		t.Fatalf("got %v", u.got)
	}
}

// TestCausalEndToEnd: B replies to A's message; C must never see the
// reply first, across many reordering trials on a real network.
func TestCausalEndToEnd(t *testing.T) {
	net := faultnet.New(faultnet.Config{
		Inner: simnet.New(simnet.Config{Nodes: 3}), Seed: 111,
		Rates: faultnet.Rates{Delay: 1, DelayMin: 10 * time.Microsecond, DelayMax: 2 * time.Millisecond},
	})
	defer net.Close()
	view := NewView(0, 1, 2)
	var mu sync.Mutex
	order := map[simnet.NodeID][]string{}
	sites := map[simnet.NodeID]*Site{}
	replied := make(chan struct{}, 64)
	for i := simnet.NodeID(0); i < 3; i++ {
		i := i
		sites[i] = NewSite(Config{
			Net: net, ID: i, InitialView: view, FDInterval: -1,
			CDeliver: func(from simnet.NodeID, data []byte) {
				mu.Lock()
				order[i] = append(order[i], string(data))
				mu.Unlock()
				if i == 1 && len(data) >= 3 && string(data[:3]) == "msg" {
					replied <- struct{}{} // signal B's application to reply
				}
			},
		})
		sites[i].Start()
	}
	defer func() {
		for id, s := range sites {
			s.Stop()
			for _, err := range s.Errs() {
				t.Errorf("site %d: %v", id, err)
			}
		}
	}()

	const rounds = 6
	go func() {
		for range replied {
			// B replies from its own goroutine (a caused computation is
			// a new external event, paper §2).
			_ = sites[1].CBcast([]byte("reply"))
		}
	}()
	for r := 0; r < rounds; r++ {
		if err := sites[0].CBcast([]byte(fmt.Sprintf("msg%d", r))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(order[2])
		mu.Unlock()
		if n >= 2*rounds {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("timeout; site 2 got %v", order[2])
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	// At every site: the number of replies delivered never exceeds the
	// number of msgs delivered at any prefix (a reply is caused by a
	// msg, so causal order forbids reply-before-cause... each reply is
	// caused by SOME msg; count-wise, reply k requires ≥k msgs before).
	for id, seq := range order {
		msgs, replies := 0, 0
		for _, m := range seq {
			if m == "reply" {
				replies++
			} else {
				msgs++
			}
			if replies > msgs {
				t.Fatalf("site %d: reply before its cause in %v", id, seq)
			}
		}
	}
}
