package faultnet_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/faultnet"
)

func wrap(t *testing.T, nodes int, cfg faultnet.Config) *faultnet.Net {
	t.Helper()
	cfg.Inner = simnet.New(simnet.Config{Nodes: nodes})
	n := faultnet.New(cfg)
	t.Cleanup(n.Close)
	return n
}

// recvN drains exactly n datagrams (with a deadline) from an endpoint.
func recvN(t *testing.T, ep transport.Endpoint, n int) []transport.Datagram {
	t.Helper()
	var out []transport.Datagram
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		got := make(chan transport.Datagram, 1)
		go func() {
			if d, ok := ep.Recv(); ok {
				got <- d
			}
		}()
		select {
		case d := <-got:
			out = append(out, d)
		case <-deadline:
			t.Fatalf("timed out after %d/%d datagrams", len(out), n)
		}
	}
	return out
}

func TestZeroRatesPassThrough(t *testing.T) {
	n := wrap(t, 2, faultnet.Config{Seed: 7})
	for i := 0; i < 100; i++ {
		n.Endpoint(0).Send(1, []byte{byte(i)})
	}
	got := recvN(t, n.Endpoint(1), 100)
	for i, d := range got {
		if d.From != 0 || len(d.Payload) != 1 || d.Payload[0] != byte(i) {
			t.Fatalf("datagram %d: got %v", i, d)
		}
	}
	s := n.Stats()
	if s.Sent != 100 || s.Delivered != 100 || s.DroppedLoss != 0 || s.Corrupted != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestDropIsSeededAndCounted(t *testing.T) {
	counts := make([]uint64, 2)
	for round := range counts {
		n := wrap(t, 2, faultnet.Config{Seed: 99, Rates: faultnet.Rates{Drop: 0.5}})
		for i := 0; i < 200; i++ {
			n.Endpoint(0).Send(1, []byte{byte(i)})
		}
		s := n.Stats()
		if s.DroppedLoss == 0 || s.DroppedLoss == 200 {
			t.Fatalf("round %d: implausible drop count %d", round, s.DroppedLoss)
		}
		if s.Sent != 200 {
			t.Fatalf("round %d: Sent = %d, want 200 (drops included)", round, s.Sent)
		}
		counts[round] = s.DroppedLoss
		n.Close()
	}
	if counts[0] != counts[1] {
		t.Fatalf("same seed, different drop counts: %d vs %d", counts[0], counts[1])
	}
}

func TestDuplicate(t *testing.T) {
	n := wrap(t, 2, faultnet.Config{Seed: 3, Rates: faultnet.Rates{Dup: 1}})
	n.Endpoint(0).Send(1, []byte("once"))
	got := recvN(t, n.Endpoint(1), 2)
	for _, d := range got {
		if string(d.Payload) != "once" {
			t.Fatalf("payload %q", d.Payload)
		}
	}
}

func TestCorruptFlipsOneByte(t *testing.T) {
	n := wrap(t, 2, faultnet.Config{Seed: 5, Rates: faultnet.Rates{Corrupt: 1}})
	orig := []byte("untouched payload")
	n.Endpoint(0).Send(1, orig)
	d := recvN(t, n.Endpoint(1), 1)[0]
	if bytes.Equal(d.Payload, orig) {
		t.Fatal("payload arrived uncorrupted at Corrupt=1")
	}
	diff := 0
	for i := range orig {
		if d.Payload[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	if string(orig) != "untouched payload" {
		t.Fatal("sender's buffer was mutated")
	}
	if n.Stats().Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", n.Stats().Corrupted)
	}
}

func TestReorderInvertsAdjacentPair(t *testing.T) {
	// Reorder every other message deterministically enough to observe at
	// least one inversion in a longer stream.
	n := wrap(t, 2, faultnet.Config{Seed: 11, Rates: faultnet.Rates{Reorder: 0.5}})
	const N = 50
	for i := 0; i < N; i++ {
		n.Endpoint(0).Send(1, []byte{byte(i)})
	}
	got := recvN(t, n.Endpoint(1), N)
	inversions := 0
	for i := 1; i < len(got); i++ {
		if got[i].Payload[0] < got[i-1].Payload[0] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no inversions observed at Reorder=0.5")
	}
	// Nothing lost: every byte arrives exactly once.
	seen := make(map[byte]bool)
	for _, d := range got {
		if seen[d.Payload[0]] {
			t.Fatalf("byte %d delivered twice", d.Payload[0])
		}
		seen[d.Payload[0]] = true
	}
}

func TestReorderBackstopFlushesQuietLink(t *testing.T) {
	n := wrap(t, 2, faultnet.Config{Seed: 2, Rates: faultnet.Rates{Reorder: 1}})
	n.Endpoint(0).Send(1, []byte("lonely"))
	// No follow-up traffic: only the backstop can release it.
	d := recvN(t, n.Endpoint(1), 1)[0]
	if string(d.Payload) != "lonely" {
		t.Fatalf("payload %q", d.Payload)
	}
}

// TestDelayHoldsBack: Delay 1 is the latency model callers build over
// simnet — every datagram arrives, none before DelayMin.
func TestDelayHoldsBack(t *testing.T) {
	const lo, hi, total = 20 * time.Millisecond, 30 * time.Millisecond, 20
	n := wrap(t, 2, faultnet.Config{Seed: 4, Rates: faultnet.Rates{Delay: 1, DelayMin: lo, DelayMax: hi}})
	start := time.Now()
	for i := 0; i < total; i++ {
		n.Endpoint(0).Send(1, []byte{byte(i)})
	}
	if _, ok := n.Endpoint(1).TryRecv(); ok {
		t.Fatal("datagram arrived inline despite Delay=1")
	}
	got := recvN(t, n.Endpoint(1), 1)
	if e := time.Since(start); e < lo {
		t.Fatalf("first datagram arrived after %v, want >= %v", e, lo)
	}
	seen := make(map[byte]bool)
	for _, d := range append(got, recvN(t, n.Endpoint(1), total-1)...) {
		seen[d.Payload[0]] = true
	}
	if len(seen) != total {
		t.Fatalf("%d distinct datagrams arrived, want %d", len(seen), total)
	}
}

func TestSymmetricPartitionAndHeal(t *testing.T) {
	n := wrap(t, 3, faultnet.Config{Seed: 6})
	n.Partition([]transport.NodeID{0, 1}, []transport.NodeID{2})
	n.Endpoint(0).Send(2, []byte("cut"))
	n.Endpoint(2).Send(0, []byte("cut"))
	n.Endpoint(0).Send(1, []byte("within"))
	d := recvN(t, n.Endpoint(1), 1)[0]
	if string(d.Payload) != "within" {
		t.Fatalf("payload %q", d.Payload)
	}
	if got := n.Stats().DroppedPartition; got != 2 {
		t.Fatalf("DroppedPartition = %d, want 2", got)
	}
	if _, ok := n.Endpoint(2).TryRecv(); ok {
		t.Fatal("datagram crossed the partition")
	}
	n.Heal()
	n.Endpoint(0).Send(2, []byte("healed"))
	if d := recvN(t, n.Endpoint(2), 1)[0]; string(d.Payload) != "healed" {
		t.Fatalf("payload %q", d.Payload)
	}

	// Nodes listed in no group share the implicit one.
	n.Partition([]transport.NodeID{0})
	n.Endpoint(1).Send(2, []byte("unlisted"))
	if d := recvN(t, n.Endpoint(2), 1)[0]; string(d.Payload) != "unlisted" {
		t.Fatalf("payload %q", d.Payload)
	}
	n.Endpoint(0).Send(1, []byte("isolated"))
	if _, ok := n.Endpoint(1).TryRecv(); ok {
		t.Fatal("isolated node leaked a datagram")
	}
}

func TestAsymmetricBlockLink(t *testing.T) {
	n := wrap(t, 2, faultnet.Config{Seed: 8})
	n.BlockLink(0, 1)
	n.Endpoint(0).Send(1, []byte("blocked"))
	n.Endpoint(1).Send(0, []byte("reverse"))
	if d := recvN(t, n.Endpoint(0), 1)[0]; string(d.Payload) != "reverse" {
		t.Fatalf("payload %q", d.Payload)
	}
	if _, ok := n.Endpoint(1).TryRecv(); ok {
		t.Fatal("datagram crossed the blocked direction")
	}
	n.UnblockLink(0, 1)
	n.Endpoint(0).Send(1, []byte("open"))
	if d := recvN(t, n.Endpoint(1), 1)[0]; string(d.Payload) != "open" {
		t.Fatalf("payload %q", d.Payload)
	}
}

func TestSetRatesAtRuntime(t *testing.T) {
	n := wrap(t, 2, faultnet.Config{Seed: 9})
	n.Endpoint(0).Send(1, []byte("a"))
	n.SetRates(faultnet.Rates{Drop: 1})
	n.Endpoint(0).Send(1, []byte("b"))
	n.SetRates(faultnet.Rates{})
	n.Endpoint(0).Send(1, []byte("c"))
	got := recvN(t, n.Endpoint(1), 2)
	if string(got[0].Payload) != "a" || string(got[1].Payload) != "c" {
		t.Fatalf("got %q, %q; want a, c", got[0].Payload, got[1].Payload)
	}
	if n.Stats().DroppedLoss != 1 {
		t.Fatalf("DroppedLoss = %d, want 1", n.Stats().DroppedLoss)
	}
}

func TestCrashRestartDelegates(t *testing.T) {
	n := wrap(t, 2, faultnet.Config{Seed: 10})
	n.Crash(1)
	if !n.Crashed(1) {
		t.Fatal("Crashed(1) = false after Crash")
	}
	n.Endpoint(0).Send(1, []byte("lost"))
	if !n.Restart(1) {
		t.Fatal("Restart(1) failed")
	}
	if n.Crashed(1) {
		t.Fatal("Crashed(1) = true after Restart")
	}
	n.Endpoint(0).Send(1, []byte("alive"))
	if d := recvN(t, n.Endpoint(1), 1)[0]; string(d.Payload) != "alive" {
		t.Fatalf("payload %q", d.Payload)
	}
	if n.Stats().Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", n.Stats().Recovered)
	}
}
