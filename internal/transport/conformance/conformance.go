// Package conformance is the behavioral contract every transport
// backend must satisfy, written once and run against all of them: the
// deterministic simulator (internal/simnet) and the real-UDP backend
// (internal/transport/udpnet) pass the same battery, so the protocol
// stacks above the seam cannot tell them apart — proven by tests, not
// asserted.
//
// The battery covers datagram delivery, payload ownership, crash and
// restart semantics (a restarted node starts with an empty inbox;
// outage traffic stays lost), stats monotonicity and close/drain
// behavior. Loss tolerance through ctp's ARQ and partitions run over the
// backend wrapped in internal/transport/faultnet, the one fault injector,
// so every backend gets them from the same place.
//
// Usage, from a backend's test file:
//
//	conformance.Run(t, conformance.Backend{
//		New: func(t *testing.T, opt conformance.Options) transport.Transport { ... },
//	})
//
// All tests synchronize on deadlines and channel receives, never bare
// sleeps, and bind no fixed ports (backends choose their own
// addressing), so the battery is -race clean and CI-safe.
package conformance

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/ctp"
	"repro/internal/transport"
	"repro/internal/transport/faultnet"
)

// Options parameterizes one transport under test.
type Options struct {
	// Nodes is the cluster size (every node hosted in-process).
	Nodes int
}

// Backend says how to build the transport under test. New must return a
// started transport hosting all opt.Nodes nodes locally; the harness
// closes it. Backends register cleanup via t.Cleanup for anything beyond
// Close.
type Backend struct {
	New func(t *testing.T, opt Options) transport.Transport
}

// waitFor polls cond until it holds or the deadline passes — the
// battery's only time-based wait, used where no channel edge exists
// (e.g. asserting a counter catches up).
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// recvOne receives one datagram with a deadline, without leaking a
// blocked goroutine past the test on success.
func recvOne(t *testing.T, ep transport.Endpoint, d time.Duration) transport.Datagram {
	t.Helper()
	type res struct {
		d  transport.Datagram
		ok bool
	}
	ch := make(chan res, 1)
	go func() {
		dg, ok := ep.Recv()
		ch <- res{dg, ok}
	}()
	select {
	case r := <-ch:
		if !r.ok {
			t.Fatalf("Recv reported closure while a datagram was expected")
		}
		return r.d
	case <-time.After(d):
		t.Fatalf("no datagram within %v", d)
		return transport.Datagram{}
	}
}

// recvClosed asserts that Recv reports closure (ok == false) within d.
func recvClosed(t *testing.T, ep transport.Endpoint, d time.Duration) {
	t.Helper()
	done := make(chan bool, 1)
	go func() {
		_, ok := ep.Recv()
		done <- ok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatalf("Recv returned a datagram; want closure")
		}
	case <-time.After(d):
		t.Fatalf("Recv still blocked %v after crash/close", d)
	}
}

const tick = 5 * time.Second // generous per-wait deadline; loaded CI boxes stall

// Run executes the full conformance battery against one backend.
func Run(t *testing.T, b Backend) {
	t.Run("Delivery", func(t *testing.T) { testDelivery(t, b) })
	t.Run("PayloadOwnership", func(t *testing.T) { testPayloadOwnership(t, b) })
	t.Run("SelfSend", func(t *testing.T) { testSelfSend(t, b) })
	t.Run("TryRecv", func(t *testing.T) { testTryRecv(t, b) })
	t.Run("StatsMonotonic", func(t *testing.T) { testStatsMonotonic(t, b) })
	t.Run("CrashDropsAndUnblocks", func(t *testing.T) { testCrashDropsAndUnblocks(t, b) })
	t.Run("RestartLosesInbox", func(t *testing.T) { testRestartLosesInbox(t, b) })
	t.Run("RestartRefusals", func(t *testing.T) { testRestartRefusals(t, b) })
	t.Run("CloseUnblocksAndDrains", func(t *testing.T) { testCloseUnblocksAndDrains(t, b) })
	t.Run("ARQLossRecovery", func(t *testing.T) { testARQLossRecovery(t, b) })
	t.Run("Partition", func(t *testing.T) { testPartition(t, b) })
}

// testDelivery: a datagram arrives with correct addressing and payload.
func testDelivery(t *testing.T, b Backend) {
	n := b.New(t, Options{Nodes: 2})
	defer n.Close()
	n.Endpoint(0).Send(1, []byte("hello"))
	d := recvOne(t, n.Endpoint(1), tick)
	if d.From != 0 || d.To != 1 || string(d.Payload) != "hello" {
		t.Fatalf("got %+v; want From=0 To=1 Payload=hello", d)
	}
}

// testPayloadOwnership: Send copies (or serializes) the payload before
// returning, so the sender reusing its buffer cannot corrupt a
// delivered datagram.
func testPayloadOwnership(t *testing.T, b Backend) {
	n := b.New(t, Options{Nodes: 2})
	defer n.Close()
	buf := []byte("original")
	n.Endpoint(0).Send(1, buf)
	for i := range buf {
		buf[i] = 'X'
	}
	d := recvOne(t, n.Endpoint(1), tick)
	if string(d.Payload) != "original" {
		t.Fatalf("payload %q shares the sender's buffer; want %q", d.Payload, "original")
	}
}

// testSelfSend: a node can send to itself.
func testSelfSend(t *testing.T, b Backend) {
	n := b.New(t, Options{Nodes: 1})
	defer n.Close()
	n.Endpoint(0).Send(0, []byte("me"))
	if d := recvOne(t, n.Endpoint(0), tick); string(d.Payload) != "me" {
		t.Fatalf("self-send delivered %q", d.Payload)
	}
}

// testTryRecv: non-blocking receive reports emptiness honestly and sees
// queued datagrams.
func testTryRecv(t *testing.T, b Backend) {
	n := b.New(t, Options{Nodes: 2})
	defer n.Close()
	if _, ok := n.Endpoint(1).TryRecv(); ok {
		t.Fatal("TryRecv returned a datagram from an empty inbox")
	}
	n.Endpoint(0).Send(1, []byte("q"))
	waitFor(t, tick, "datagram to be queued", func() bool {
		d, ok := n.Endpoint(1).TryRecv()
		return ok && string(d.Payload) == "q"
	})
}

// testStatsMonotonic: counters never move backwards and account for the
// traffic the test pushed.
func testStatsMonotonic(t *testing.T, b Backend) {
	n := b.New(t, Options{Nodes: 2})
	defer n.Close()
	prev := n.Stats()
	check := func(s transport.Stats) {
		t.Helper()
		if s.Sent < prev.Sent || s.Delivered < prev.Delivered ||
			s.Recovered < prev.Recovered || s.Corrupted < prev.Corrupted {
			t.Fatalf("stats moved backwards: %+v then %+v", prev, s)
		}
		prev = s
	}
	const rounds = 20
	for i := 0; i < rounds; i++ {
		n.Endpoint(0).Send(1, []byte{byte(i)})
		check(n.Stats())
	}
	for i := 0; i < rounds; i++ {
		recvOne(t, n.Endpoint(1), tick)
	}
	waitFor(t, tick, "Sent/Delivered to reflect traffic", func() bool {
		s := n.Stats()
		return s.Sent >= rounds && s.Delivered >= rounds
	})
	check(n.Stats())
}

// testCrashDropsAndUnblocks: a crashed node's receivers unblock, its
// traffic is dropped, and Crashed reports it.
func testCrashDropsAndUnblocks(t *testing.T, b Backend) {
	n := b.New(t, Options{Nodes: 2})
	defer n.Close()
	if n.Crashed(1) {
		t.Fatal("fresh node reports crashed")
	}
	n.Crash(1)
	if !n.Crashed(1) {
		t.Fatal("Crashed(1) false after Crash(1)")
	}
	recvClosed(t, n.Endpoint(1), tick)
	// Sends to (and from) the crashed node are dropped without panic.
	n.Endpoint(0).Send(1, []byte("into the void"))
	n.Endpoint(1).Send(0, []byte("from the void"))
	if _, ok := n.Endpoint(0).TryRecv(); ok {
		t.Fatal("datagram sent by a crashed node was delivered")
	}
}

// testRestartLosesInbox is the crash-recovery contract: datagrams queued
// at crash time and datagrams sent during the outage are lost; the
// restarted incarnation starts empty and receives new traffic.
func testRestartLosesInbox(t *testing.T, b Backend) {
	n := b.New(t, Options{Nodes: 2})
	defer n.Close()

	// Queue a datagram at node 1, then crash it: the queued datagram
	// must die with the incarnation.
	n.Endpoint(0).Send(1, []byte("queued-before-crash"))
	waitFor(t, tick, "pre-crash datagram to be queued", func() bool {
		return n.Stats().Delivered >= 1
	})
	n.Crash(1)
	// Outage traffic is lost too.
	n.Endpoint(0).Send(1, []byte("sent-during-outage"))
	if !n.Restart(1) {
		t.Fatal("Restart(1) refused a crashed node")
	}
	if n.Crashed(1) {
		t.Fatal("node still crashed after Restart")
	}
	waitFor(t, tick, "Recovered counter", func() bool { return n.Stats().Recovered >= 1 })

	// The first datagram the new incarnation sees must be post-restart
	// traffic — receiving it proves the two earlier ones are gone, since
	// delivery into one inbox preserves arrival order.
	n.Endpoint(0).Send(1, []byte("after-restart"))
	d := recvOne(t, n.Endpoint(1), tick)
	if string(d.Payload) != "after-restart" {
		t.Fatalf("restarted inbox surfaced %q; want only post-restart traffic", d.Payload)
	}
	if extra, ok := n.Endpoint(1).TryRecv(); ok {
		t.Fatalf("restarted inbox held a second datagram %q", extra.Payload)
	}
	// And the revived node can send again.
	n.Endpoint(1).Send(0, []byte("back"))
	if d := recvOne(t, n.Endpoint(0), tick); string(d.Payload) != "back" {
		t.Fatalf("revived node's send delivered %q", d.Payload)
	}
}

// testRestartRefusals: Restart refuses live nodes and closed transports.
func testRestartRefusals(t *testing.T, b Backend) {
	n := b.New(t, Options{Nodes: 1})
	if n.Restart(0) {
		t.Fatal("Restart of a live node must refuse")
	}
	n.Crash(0)
	n.Close()
	if n.Restart(0) {
		t.Fatal("Restart after Close must refuse")
	}
}

// testCloseUnblocksAndDrains: Close unblocks receivers, later sends are
// dropped without panic, and Close is idempotent.
func testCloseUnblocksAndDrains(t *testing.T, b Backend) {
	n := b.New(t, Options{Nodes: 2})
	ep := n.Endpoint(1)
	unblocked := make(chan bool, 1)
	go func() {
		_, ok := ep.Recv()
		unblocked <- ok
	}()
	n.Close()
	select {
	case ok := <-unblocked:
		if ok {
			t.Fatal("Recv returned a datagram at Close; want closure")
		}
	case <-time.After(tick):
		t.Fatal("Recv still blocked after Close")
	}
	n.Endpoint(0).Send(1, []byte("late")) // must not panic
	n.Close()                             // idempotent
	if _, ok := ep.TryRecv(); ok {
		t.Fatal("datagram delivered after Close")
	}
}

// testARQLossRecovery: faultnet drops a quarter of the backend's
// datagrams, yet a reliable ctp composition (ARQ + checksum + ordering)
// on top of the seam delivers everything, in order — the transport
// contract ctp's retransmission actually needs.
func testARQLossRecovery(t *testing.T, b Backend) {
	const msgs = 40
	n := faultnet.New(faultnet.Config{Inner: b.New(t, Options{Nodes: 2}), Seed: 42, Rates: faultnet.Rates{Drop: 0.25}})
	defer n.Close()

	got := make(chan []byte, msgs)
	mk := func(id, peer transport.NodeID, deliver func([]byte)) *ctp.Endpoint {
		e, err := ctp.NewEndpoint(ctp.Config{
			Net: n, ID: id, Peer: peer,
			Reliable: true, Ordered: true, Checksummed: true,
			RTO: 10 * time.Millisecond, MSS: 64,
			Deliver: deliver,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		return e
	}
	a := mk(0, 1, nil)
	bEp := mk(1, 0, func(m []byte) { got <- append([]byte(nil), m...) })
	defer func() {
		a.Stop()
		bEp.Stop()
		for _, err := range append(a.Errs(), bEp.Errs()...) {
			t.Errorf("endpoint error: %v", err)
		}
	}()

	for i := 0; i < msgs; i++ {
		if err := a.Send([]byte(fmt.Sprintf("msg-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		select {
		case m := <-got:
			want := []byte(fmt.Sprintf("msg-%03d", i))
			if !bytes.Equal(m, want) {
				t.Fatalf("delivery %d = %q; want %q (ordered stream)", i, m, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d of %d messages arrived over the lossy transport", i, msgs)
		}
	}
	if a.Retransmits() == 0 {
		t.Log("note: no retransmissions occurred; loss injection may be ineffective")
	}
}

// testPartition: datagrams do not cross groups and flow again after
// Heal. A backend that is not itself a transport.Partitioner is wrapped
// in faultnet, where partitions come from.
func testPartition(t *testing.T, b Backend) {
	n := b.New(t, Options{Nodes: 3})
	p, ok := n.(transport.Partitioner)
	if !ok {
		fn := faultnet.New(faultnet.Config{Inner: n})
		n, p = fn, fn
	}
	defer n.Close()
	p.Partition([]transport.NodeID{0}, []transport.NodeID{1, 2})
	n.Endpoint(0).Send(1, []byte("across"))
	n.Endpoint(2).Send(1, []byte("within"))
	if d := recvOne(t, n.Endpoint(1), tick); string(d.Payload) != "within" {
		t.Fatalf("got %q through a partition", d.Payload)
	}
	p.Heal()
	n.Endpoint(0).Send(1, []byte("healed"))
	if d := recvOne(t, n.Endpoint(1), tick); string(d.Payload) != "healed" {
		t.Fatalf("after Heal got %q; want %q", d.Payload, "healed")
	}
}
