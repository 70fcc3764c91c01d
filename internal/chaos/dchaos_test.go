package chaos

import (
	"fmt"
	"testing"
	"time"
)

// TestDistributedStorms drives seeded fault storms over both transport
// substrates: every seed must satisfy every distributed invariant (see
// DReport.Err) on the deterministic simulator and on real UDP sockets.
func TestDistributedStorms(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed chaos storm")
	}
	for _, backend := range Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			for _, seed := range seeds(t, 1000, 3, 3, 20) {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					rep, err := DRun(DConfig{Backend: backend, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					t.Log(rep)
					if err := rep.Err(); err != nil {
						t.Fatal(err)
					}
					if rep.WritesAcked == 0 {
						t.Fatal("storm acked no writes; the harness exercised nothing")
					}
				})
			}
		})
	}
}

// TestDistributedStormWithUpgrades races live protocol upgrades against
// the fault storm: mid-storm ProposeUpgrade flips ride the total order
// while transports crash, partitions isolate minorities, and messages
// drop. Every acked bump must land on every replica — same app version,
// same view proto, same stack epoch — with zero acked-write loss across
// the epoch swaps.
func TestDistributedStormWithUpgrades(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed chaos storm")
	}
	for _, backend := range Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			var proposed int
			for _, seed := range seeds(t, 1000, 3, 3, 20) {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					rep, err := DRun(DConfig{Backend: backend, Seed: seed, Upgrades: 2})
					if err != nil {
						t.Fatal(err)
					}
					t.Log(rep)
					if err := rep.Err(); err != nil {
						t.Fatal(err)
					}
					if rep.WritesAcked == 0 {
						t.Fatal("storm acked no writes; the harness exercised nothing")
					}
					proposed += rep.UpgradesProposed
				})
			}
			if proposed == 0 {
				t.Error("no upgrade was ever acked; the battery exercised no epoch swaps")
			}
		})
	}
}

// TestDistributedStormReplaysDeterministically: the same seed must yield
// the same fault schedule (crash/partition/heal/rate-flip counts) on the
// deterministic backend, so failures can be replayed via CHAOS_SEED.
func TestDistributedStormReplaysDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed chaos storm")
	}
	cfg := DConfig{Backend: "simnet", Seed: 424242, Steps: 8, StepPause: 10 * time.Millisecond}
	a, err := DRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	b, err := DRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if a.Crashes != b.Crashes || a.Partitions != b.Partitions || a.Heals != b.Heals || a.RateFlips != b.RateFlips {
		t.Fatalf("fault schedule diverged across replays:\n  %v\n  %v", a, b)
	}
}

// TestDRunRejectsBadConfig pins the config validation edges.
func TestDRunRejectsBadConfig(t *testing.T) {
	if _, err := DRun(DConfig{Sites: 2}); err == nil {
		t.Fatal("2-site storm must be rejected (no crash-tolerant majority)")
	}
	if _, err := DRun(DConfig{Backend: "carrier-pigeon"}); err == nil {
		t.Fatal("unknown backend must be rejected")
	}
}
