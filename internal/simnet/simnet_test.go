package simnet_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

func TestBasicDelivery(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 2})
	defer n.Close()
	n.Send(0, 1, []byte("hi"))
	d, ok := n.Node(1).Recv()
	if !ok || string(d.Payload) != "hi" || d.From != 0 || d.To != 1 {
		t.Fatalf("recv = %+v ok=%v", d, ok)
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPayloadCopied(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 2})
	defer n.Close()
	buf := []byte("abc")
	n.Send(0, 1, buf)
	buf[0] = 'X'
	d, _ := n.Node(1).Recv()
	if string(d.Payload) != "abc" {
		t.Fatalf("payload aliased sender's buffer: %q", d.Payload)
	}
}

func TestSelfSend(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 1})
	defer n.Close()
	n.Node(0).Send(0, []byte("loop"))
	d, ok := n.Node(0).Recv()
	if !ok || string(d.Payload) != "loop" {
		t.Fatalf("self delivery failed: %+v %v", d, ok)
	}
}

func TestNoCorruptionByDefault(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 2})
	defer n.Close()
	for i := 0; i < 50; i++ {
		n.Send(0, 1, []byte{0xAA})
		d, _ := n.Node(1).Recv()
		if d.Payload[0] != 0xAA {
			t.Fatal("simnet altered a payload; corruption belongs to faultnet")
		}
	}
}

// TestInlineOrderedDelivery: every datagram is in its destination's inbox
// before Send returns, in send order.
func TestInlineOrderedDelivery(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 2})
	defer n.Close()
	for i := 0; i < 10; i++ {
		n.Send(0, 1, []byte{byte(i)})
	}
	for i := 0; i < 10; i++ {
		if d, ok := n.Node(1).TryRecv(); !ok || d.Payload[0] != byte(i) {
			t.Fatalf("datagram %d: got %+v ok=%v", i, d, ok)
		}
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 2})
	defer n.Close()
	n.Crash(1)
	if !n.Crashed(1) || n.Crashed(0) {
		t.Fatal("crash state wrong")
	}
	n.Send(0, 1, []byte("x"))
	if _, ok := n.Node(1).Recv(); ok {
		t.Fatal("crashed node received a message")
	}
	st := n.Stats()
	if st.DroppedCrashed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Sends *from* a crashed node are dropped too.
	n.Send(1, 0, []byte("y"))
	if _, ok := n.Node(0).TryRecv(); ok {
		t.Fatal("message from crashed node delivered")
	}
}

func TestCrashUnblocksReceiver(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 1})
	defer n.Close()
	done := make(chan bool)
	go func() {
		_, ok := n.Node(0).Recv()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	n.Crash(0)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv should report closure")
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on crash")
	}
}

func TestRestartRevivesNode(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 2})
	defer n.Close()
	n.Crash(1)
	n.Send(0, 1, []byte("lost")) // sent during the outage: stays dropped
	if !n.Restart(1) {
		t.Fatal("Restart refused a crashed node")
	}
	if n.Crashed(1) {
		t.Fatal("node still marked crashed after restart")
	}
	if _, ok := n.Node(1).TryRecv(); ok {
		t.Fatal("restarted node inherited a message sent while it was down")
	}
	n.Send(0, 1, []byte("back"))
	if d, ok := n.Node(1).Recv(); !ok || string(d.Payload) != "back" {
		t.Fatalf("post-restart delivery failed: %+v %v", d, ok)
	}
	st := n.Stats()
	if st.Recovered != 1 || st.DroppedCrashed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRestartDiscardsQueuedInbox(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 2})
	defer n.Close()
	n.Send(0, 1, []byte("queued")) // delivered but never read
	n.Crash(1)
	n.Restart(1)
	if _, ok := n.Node(1).TryRecv(); ok {
		t.Fatal("restart must start from an empty inbox")
	}
}

func TestRestartRefusals(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 2})
	if n.Restart(0) {
		t.Fatal("Restart of a live node must refuse")
	}
	n.Crash(0)
	n.Close()
	if n.Restart(0) {
		t.Fatal("Restart after Close must refuse")
	}
}

func TestInboxOverflow(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 2, InboxSize: 4})
	defer n.Close()
	for i := 0; i < 10; i++ {
		n.Send(0, 1, []byte{byte(i)})
	}
	st := n.Stats()
	if st.DroppedOverflow != 6 || st.Delivered != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCloseIdempotentAndDropsSends(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 2})
	n.Close()
	n.Close()
	n.Send(0, 1, []byte("x"))
	if _, ok := n.Node(1).Recv(); ok {
		t.Fatal("send after close delivered")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	simnet.New(simnet.Config{Nodes: 0})
}

func TestConcurrentSendersAndReceivers(t *testing.T) {
	n := simnet.New(simnet.Config{Nodes: 4})
	defer n.Close()
	const perPair = 100
	var wg sync.WaitGroup
	for from := 0; from < 4; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 0; i < perPair; i++ {
				for to := 0; to < 4; to++ {
					n.Send(simnet.NodeID(from), simnet.NodeID(to), []byte{byte(i)})
				}
			}
		}(from)
	}
	var rg sync.WaitGroup
	counts := make([]int, 4)
	for to := 0; to < 4; to++ {
		rg.Add(1)
		go func(to int) {
			defer rg.Done()
			for {
				if _, ok := n.Node(simnet.NodeID(to)).Recv(); !ok {
					return
				}
				counts[to]++
				if counts[to] == 4*perPair {
					return
				}
			}
		}(to)
	}
	wg.Wait()
	done := make(chan struct{})
	go func() { rg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("receivers stuck; counts = %v, stats = %+v", counts, n.Stats())
	}
	for to, c := range counts {
		if c != 4*perPair {
			t.Fatalf("node %d received %d, want %d", to, c, 4*perPair)
		}
	}
}
