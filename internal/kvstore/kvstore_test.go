package kvstore_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gc"
	"repro/internal/kvstore"
	"repro/internal/simnet"
	"repro/internal/transport/faultnet"
)

// latency is the link model of the multi-replica tests: every datagram
// held for a uniform [lo, hi].
func latency(lo, hi time.Duration) faultnet.Rates {
	return faultnet.Rates{Delay: 1, DelayMin: lo, DelayMax: hi}
}

// replicas builds and starts n replicas on one simnet wrapped in
// faultnet, its traffic suffering r (seeded by seed).
func replicas(t *testing.T, n int, seed int64, r faultnet.Rates) []*kvstore.Store {
	t.Helper()
	net := faultnet.New(faultnet.Config{Inner: simnet.New(simnet.Config{Nodes: n}), Seed: seed, Rates: r})
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	view := gc.NewView(ids...)
	stores := make([]*kvstore.Store, n)
	for i := 0; i < n; i++ {
		stores[i] = kvstore.New(kvstore.Config{
			Net: net, ID: simnet.NodeID(i), InitialView: view,
			Site: gc.Config{FDInterval: -1, RTO: 20 * time.Millisecond},
		})
		stores[i].Start()
	}
	t.Cleanup(func() {
		for i, s := range stores {
			s.Stop()
			for _, err := range s.Errs() {
				t.Errorf("replica %d: %v", i, err)
			}
		}
		net.Close()
	})
	return stores
}

// waitConverged waits until every replica applied `want` operations.
func waitConverged(t *testing.T, stores []*kvstore.Store, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, s := range stores {
			if s.Applied() < want {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			for i, s := range stores {
				t.Logf("replica %d applied %d", i, s.Applied())
			}
			t.Fatalf("timeout waiting for %d applies", want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReadYourWrites(t *testing.T) {
	stores := replicas(t, 1, 1, faultnet.Rates{})
	if err := stores[0].Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	// Put returns only after the local apply: the read must see it.
	if v, ok := stores[0].Get("k"); !ok || v != "v1" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	if err := stores[0].Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := stores[0].Get("k"); ok {
		t.Fatal("deleted key still visible")
	}
}

func TestReplicasConverge(t *testing.T) {
	stores := replicas(t, 3, 2, latency(50*time.Microsecond, 500*time.Microsecond))
	var wg sync.WaitGroup
	const perReplica = 6
	for i, s := range stores {
		wg.Add(1)
		go func(i int, s *kvstore.Store) {
			defer wg.Done()
			for k := 0; k < perReplica; k++ {
				if err := s.Put(fmt.Sprintf("key%d", k), fmt.Sprintf("from-%d", i)); err != nil {
					t.Error(err)
				}
			}
		}(i, s)
	}
	wg.Wait()
	waitConverged(t, stores, uint64(3*perReplica))
	ref := stores[0].SnapshotMap()
	if len(ref) != perReplica {
		t.Fatalf("keys = %d, want %d", len(ref), perReplica)
	}
	for i := 1; i < 3; i++ {
		if got := stores[i].SnapshotMap(); !reflect.DeepEqual(got, ref) {
			t.Fatalf("replica %d diverged:\n%v\nvs\n%v", i, got, ref)
		}
	}
}

// TestCASExactlyOneWinner: concurrent CAS on one key from every replica —
// the total order guarantees exactly one succeeds, and all replicas agree
// on the final value.
func TestCASExactlyOneWinner(t *testing.T) {
	stores := replicas(t, 3, 3, latency(50*time.Microsecond, 500*time.Microsecond))
	if err := stores[0].Put("lock", "free"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, stores, 1)

	wins := make([]bool, 3)
	var wg sync.WaitGroup
	for i, s := range stores {
		wg.Add(1)
		go func(i int, s *kvstore.Store) {
			defer wg.Done()
			ok, err := s.CAS("lock", "free", fmt.Sprintf("owner-%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			wins[i] = ok
		}(i, s)
	}
	wg.Wait()
	waitConverged(t, stores, 4)

	winners := 0
	winner := -1
	for i, w := range wins {
		if w {
			winners++
			winner = i
		}
	}
	if winners != 1 {
		t.Fatalf("CAS winners = %d (%v), want exactly 1", winners, wins)
	}
	want := fmt.Sprintf("owner-%d", winner)
	for i, s := range stores {
		if v, _ := s.Get("lock"); v != want {
			t.Fatalf("replica %d: lock = %q, want %q", i, v, want)
		}
	}
}

func TestCASFailsOnWrongOld(t *testing.T) {
	stores := replicas(t, 1, 4, faultnet.Rates{})
	if err := stores[0].Put("k", "a"); err != nil {
		t.Fatal(err)
	}
	ok, err := stores[0].CAS("k", "not-a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("CAS with stale old value succeeded")
	}
	if v, _ := stores[0].Get("k"); v != "a" {
		t.Fatalf("k = %q", v)
	}
	// CAS on a missing key fails too.
	if ok, _ := stores[0].CAS("missing", "", "x"); ok {
		t.Fatal("CAS on missing key succeeded")
	}
}

func TestSurvivesReplicaCrash(t *testing.T) {
	net := faultnet.New(faultnet.Config{
		Inner: simnet.New(simnet.Config{Nodes: 3}), Seed: 5,
		Rates: latency(50*time.Microsecond, 300*time.Microsecond),
	})
	view := gc.NewView(0, 1, 2)
	stores := make([]*kvstore.Store, 3)
	for i := 0; i < 3; i++ {
		stores[i] = kvstore.New(kvstore.Config{
			Net: net, ID: simnet.NodeID(i), InitialView: view,
			Site: gc.Config{FDInterval: 10 * time.Millisecond, SuspectAfter: 60 * time.Millisecond,
				RTO: 20 * time.Millisecond},
		})
		stores[i].Start()
	}
	defer func() {
		for _, s := range stores {
			s.Stop()
		}
		net.Close()
	}()

	if err := stores[0].Put("k", "before"); err != nil {
		t.Fatal(err)
	}
	net.Crash(2) // a quorum of 2 remains
	if err := stores[1].Put("k", "after"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v0, _ := stores[0].Get("k")
		v1, _ := stores[1].Get("k")
		if v0 == "after" && v1 == "after" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors did not converge: %q %q", v0, v1)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConvergenceProperty: random operation mixes from all replicas end
// with identical maps everywhere.
func TestConvergenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stores := replicas(t, 3, seed, latency(20*time.Microsecond, 300*time.Microsecond))
		keys := []string{"a", "b", "c"}
		total := uint64(0)
		var wg sync.WaitGroup
		for i, s := range stores {
			n := 2 + rng.Intn(5)
			total += uint64(n)
			ops := make([]int, n)
			for j := range ops {
				ops[j] = rng.Intn(3)
			}
			wg.Add(1)
			go func(i int, s *kvstore.Store, ops []int) {
				defer wg.Done()
				for j, op := range ops {
					key := keys[(i+j)%len(keys)]
					var err error
					switch op {
					case 0:
						err = s.Put(key, fmt.Sprintf("v%d-%d", i, j))
					case 1:
						err = s.Delete(key)
					default:
						_, err = s.CAS(key, "x", "y")
					}
					if err != nil {
						t.Error(err)
					}
				}
			}(i, s, ops)
		}
		wg.Wait()
		waitConverged(t, stores, total)
		ref := stores[0].SnapshotMap()
		for i := 1; i < 3; i++ {
			if !reflect.DeepEqual(stores[i].SnapshotMap(), ref) {
				t.Errorf("seed %d: replica %d diverged", seed, i)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
