package kvstore_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/gc"
	"repro/internal/kvstore"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/faultnet"
)

// newReplica builds and starts one replica on an arbitrary transport.
func newReplica(net transport.Transport, id transport.NodeID, view *gc.View, mutate func(*gc.Config)) *kvstore.Store {
	sc := gc.Config{FDInterval: 10 * time.Millisecond, SuspectAfter: 60 * time.Millisecond, RTO: 20 * time.Millisecond}
	if mutate != nil {
		mutate(&sc)
	}
	s := kvstore.New(kvstore.Config{Net: net, ID: id, InitialView: view, Site: sc})
	s.Start()
	return s
}

func waitStore(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrashRejoinStateTransfer is the crash-recovery round trip: a
// replica's node crashes and its process dies; the survivors remove it,
// keep writing, and a *fresh* replica object (same NodeID, new
// incarnation) rejoins and serves keys written both before the crash and
// while it was down — state it can only have received via snapshot
// transfer, since its map starts empty.
func TestCrashRejoinStateTransfer(t *testing.T) {
	net := faultnet.New(faultnet.Config{
		Inner: simnet.New(simnet.Config{Nodes: 3}), Seed: 7,
		Rates: latency(50*time.Microsecond, 400*time.Microsecond),
	})
	defer net.Close()
	view := gc.NewView(0, 1, 2)
	stores := make([]*kvstore.Store, 3)
	for i := range stores {
		stores[i] = newReplica(net, transport.NodeID(i), view, nil)
	}
	defer func() {
		for i, s := range stores {
			if s == nil {
				continue
			}
			s.Stop()
			if i != 2 { // replica 2's first incarnation died mid-flight
				for _, err := range s.Errs() {
					t.Errorf("replica %d: %v", i, err)
				}
			}
		}
	}()

	if err := stores[0].Put("pre-crash", "v1"); err != nil {
		t.Fatal(err)
	}
	waitStore(t, "pre-crash write everywhere", func() bool {
		for _, s := range stores {
			if _, ok := s.Get("pre-crash"); !ok {
				return false
			}
		}
		return true
	})

	// Crash replica 2: node down, process gone.
	net.Crash(2)
	stores[2].Stop()
	stores[2] = nil
	if err := stores[0].Site().Leave(2); err != nil {
		t.Fatal(err)
	}
	waitStore(t, "survivors to remove 2", func() bool {
		return !stores[0].Site().View().Contains(2) && !stores[1].Site().View().Contains(2)
	})

	// Writes while 2 is down: only the snapshot can carry these to it.
	if err := stores[1].Put("while-down", "v2"); err != nil {
		t.Fatal(err)
	}

	// Fresh incarnation rejoins: new store object, empty map, same ID.
	net.Restart(2)
	stores[2] = newReplica(net, 2, gc.NewView(0, 1, 2), nil)
	if err := stores[0].Site().Join(2); err != nil {
		t.Fatal(err)
	}
	waitStore(t, "survivors to re-admit 2", func() bool {
		return stores[0].Site().View().Contains(2) && stores[1].Site().View().Contains(2)
	})
	waitStore(t, "rejoined replica to serve pre-crash state", func() bool {
		_, ok1 := stores[2].Get("pre-crash")
		_, ok2 := stores[2].Get("while-down")
		return ok1 && ok2
	})

	// Post-rejoin writes replicate to the rejoined member too.
	if err := stores[0].Put("post-rejoin", "v3"); err != nil {
		t.Fatal(err)
	}
	waitStore(t, "maps to converge", func() bool {
		ref := stores[0].SnapshotMap()
		return len(ref) == 3 &&
			reflect.DeepEqual(ref, stores[1].SnapshotMap()) &&
			reflect.DeepEqual(ref, stores[2].SnapshotMap())
	})
}

// TestChurnUnderMessageLoss runs join/leave storms over a lossy faultnet
// (20% drop each way): every round crashes and rejoins a replica while
// writes continue; all replicas must converge on the same view and the
// same map at the end.
func TestChurnUnderMessageLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("churn storm")
	}
	fn := faultnet.New(faultnet.Config{
		Inner: simnet.New(simnet.Config{Nodes: 3}), Seed: 19,
		Rates: faultnet.Rates{Drop: 0.2, Delay: 1, DelayMin: 50 * time.Microsecond, DelayMax: 500 * time.Microsecond},
	})
	defer fn.Close()
	view := gc.NewView(0, 1, 2)
	stores := make([]*kvstore.Store, 3)
	for i := range stores {
		stores[i] = newReplica(fn, transport.NodeID(i), view, nil)
	}
	defer func() {
		for _, s := range stores {
			if s != nil {
				s.Stop()
			}
		}
	}()

	const rounds = 3
	for round := 0; round < rounds; round++ {
		key := fmt.Sprintf("round-%d", round)
		if err := stores[0].Put(key, "written"); err != nil {
			t.Fatalf("round %d put: %v", round, err)
		}

		// Crash replica 2, remove it, write while it is gone.
		fn.Crash(2)
		stores[2].Stop()
		stores[2] = nil
		if err := stores[0].Site().Leave(2); err != nil {
			t.Fatalf("round %d leave: %v", round, err)
		}
		waitStore(t, fmt.Sprintf("round %d: survivors drop 2", round), func() bool {
			return !stores[0].Site().View().Contains(2) && !stores[1].Site().View().Contains(2)
		})
		if err := stores[1].Put(key+"-down", "missed"); err != nil {
			t.Fatalf("round %d put while down: %v", round, err)
		}

		// Fresh incarnation rejoins through the same lossy links.
		fn.Restart(2)
		stores[2] = newReplica(fn, 2, gc.NewView(0, 1, 2), nil)
		if err := stores[0].Site().Join(2); err != nil {
			t.Fatalf("round %d join: %v", round, err)
		}
		waitStore(t, fmt.Sprintf("round %d: re-admission", round), func() bool {
			return stores[0].Site().View().Contains(2) && stores[1].Site().View().Contains(2)
		})
		waitStore(t, fmt.Sprintf("round %d: state transfer", round), func() bool {
			_, ok := stores[2].Get(key + "-down")
			return ok
		})
	}

	// Final convergence: same view and same map everywhere.
	want := "{0,1,2}"
	waitStore(t, "final views", func() bool {
		for _, s := range stores {
			if s.Site().View().String() != want {
				return false
			}
		}
		return true
	})
	waitStore(t, "final maps", func() bool {
		ref := stores[0].SnapshotMap()
		return len(ref) == 2*rounds &&
			reflect.DeepEqual(ref, stores[1].SnapshotMap()) &&
			reflect.DeepEqual(ref, stores[2].SnapshotMap())
	})
	for i, s := range stores {
		if i == 2 {
			continue // replica 2's incarnations crash mid-flight by design
		}
		for _, err := range s.Errs() {
			t.Errorf("replica %d: %v", i, err)
		}
	}
}
