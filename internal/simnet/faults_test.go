package simnet_test

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport/faultnet"
)

// simnet injects no faults of its own. Every caller that wants latency,
// loss, corruption or partitions wraps it in faultnet; these tests pin the
// fault model of that stack, and that each fault is counted by faultnet
// while the simnet underneath stays fault-free.

func faulty(t *testing.T, nodes int, seed int64, r faultnet.Rates) (*simnet.Network, *faultnet.Net) {
	t.Helper()
	sim := simnet.New(simnet.Config{Nodes: nodes})
	fn := faultnet.New(faultnet.Config{Inner: sim, Seed: seed, Rates: r})
	t.Cleanup(fn.Close)
	return sim, fn
}

// assertNoSimnetFaults checks that the inner simnet counted no injected
// fault: those belong to the faultnet overlay alone.
func assertNoSimnetFaults(t *testing.T, sim *simnet.Network) {
	t.Helper()
	if st := sim.Stats(); st.DroppedLoss != 0 || st.Corrupted != 0 || st.DroppedPartition != 0 {
		t.Fatalf("simnet counted an injected fault: %+v", st)
	}
}

func TestDelayDelaysDelivery(t *testing.T) {
	_, fn := faulty(t, 2, 1, faultnet.Rates{Delay: 1, DelayMin: 20 * time.Millisecond, DelayMax: 30 * time.Millisecond})
	start := time.Now()
	fn.Endpoint(0).Send(1, []byte("x"))
	if _, ok := fn.Endpoint(1).TryRecv(); ok {
		t.Fatal("message arrived instantly despite delay")
	}
	if _, ok := fn.Endpoint(1).Recv(); !ok {
		t.Fatal("no delivery")
	}
	if e := time.Since(start); e < 15*time.Millisecond {
		t.Fatalf("delivered after %v, want ≥ ~20ms", e)
	}
}

func TestLossDropsRoughlyAtRate(t *testing.T) {
	sim, fn := faulty(t, 2, 42, faultnet.Rates{Drop: 0.5})
	const total = 2000
	for i := 0; i < total; i++ {
		fn.Endpoint(0).Send(1, []byte{byte(i)})
	}
	st := fn.Stats()
	if st.DroppedLoss == 0 || st.Delivered == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DroppedLoss+st.Delivered != total {
		t.Fatalf("accounting: %+v", st)
	}
	rate := float64(st.DroppedLoss) / total
	if rate < 0.4 || rate > 0.6 {
		t.Fatalf("loss rate = %.2f, want ≈ 0.5", rate)
	}
	assertNoSimnetFaults(t, sim)
}

func TestCorruptionFlipsOneByte(t *testing.T) {
	sim, fn := faulty(t, 2, 9, faultnet.Rates{Corrupt: 1})
	orig := []byte{1, 2, 3, 4}
	fn.Endpoint(0).Send(1, orig)
	d, ok := fn.Endpoint(1).Recv()
	if !ok {
		t.Fatal("no delivery")
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
	if fn.Stats().Corrupted != 1 {
		t.Fatalf("stats = %+v", fn.Stats())
	}
	assertNoSimnetFaults(t, sim)
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() uint64 {
		_, fn := faulty(t, 2, 7, faultnet.Rates{Drop: 0.3})
		defer fn.Close()
		for i := 0; i < 500; i++ {
			fn.Endpoint(0).Send(1, []byte{1})
		}
		return fn.Stats().DroppedLoss
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different drops: %d vs %d", a, b)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	sim, fn := faulty(t, 4, 0, faultnet.Rates{})
	fn.Partition([]simnet.NodeID{0, 1}, []simnet.NodeID{2, 3})
	fn.Endpoint(0).Send(2, []byte("x")) // across partition: dropped
	fn.Endpoint(0).Send(1, []byte("y")) // within group: delivered
	if d, ok := fn.Endpoint(1).Recv(); !ok || string(d.Payload) != "y" {
		t.Fatal("intra-group delivery failed")
	}
	if _, ok := fn.Endpoint(2).TryRecv(); ok {
		t.Fatal("cross-partition delivery")
	}
	if st := fn.Stats(); st.DroppedPartition != 1 {
		t.Fatalf("stats = %+v", st)
	}
	assertNoSimnetFaults(t, sim)
	fn.Heal()
	fn.Endpoint(0).Send(2, []byte("z"))
	if d, ok := fn.Endpoint(2).Recv(); !ok || string(d.Payload) != "z" {
		t.Fatal("post-heal delivery failed")
	}
}

func TestUnlistedNodesShareImplicitGroup(t *testing.T) {
	_, fn := faulty(t, 4, 0, faultnet.Rates{})
	fn.Partition([]simnet.NodeID{0}) // 1,2,3 in the implicit group
	fn.Endpoint(1).Send(2, []byte("x"))
	if _, ok := fn.Endpoint(2).Recv(); !ok {
		t.Fatal("unlisted nodes must still talk to each other")
	}
	fn.Endpoint(0).Send(1, []byte("y"))
	if _, ok := fn.Endpoint(1).TryRecv(); ok {
		t.Fatal("isolated node leaked a message")
	}
}
