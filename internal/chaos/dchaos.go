// Distributed chaos (dchaos): seeded fault storms over a full N-site
// replicated cluster, complementing this package's single-stack
// controller storms. Where chaos.Run attacks one stack's concurrency
// controller, DRun attacks the distributed protocol: it boots N kvstore
// replicas on a real transport substrate (deterministic simnet or real
// UDP sockets), wraps the substrate in faultnet, and drives a seeded
// storm of transport crash/restarts, majority-preserving partitions and
// message chaos (loss, duplication, reordering, delay) while a writer
// keeps acknowledging operations.
//
// After the storm every fault is lifted and the cluster must prove
// itself against the distributed invariants:
//
//   - Post-heal convergence: every replica ends with the same map.
//   - No acked-write loss: every write acknowledged during the storm is
//     present, with its written value, on every replica.
//   - No split-brain: every replica reports the same final view.
//   - No wedged site: a post-storm write through every replica succeeds.
//   - Clean drain: Stop on every replica, then zero computation errors.
//
// Storm decisions all derive from DConfig.Seed, so a failing run can be
// replayed; timing on a real transport is inherently not reproducible,
// only the fault schedule is.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"time"

	"repro/internal/gc"
	"repro/internal/kvstore"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/faultnet"
	"repro/internal/transport/udpnet"
)

// stormRates are the message-chaos rates toggled during a storm.
// Corruption stays off by design: the link CRC is the integrity boundary
// and rejected frames look like loss, which Drop covers.
var stormRates = faultnet.Rates{Drop: 0.15, Dup: 0.05, Reorder: 0.05, Delay: 0.05}

// settleTimeout bounds post-heal convergence.
const settleTimeout = 30 * time.Second

// DConfig parameterizes one distributed storm.
type DConfig struct {
	// Backend selects the substrate: "simnet" (default) or "udpnet".
	Backend string
	// Sites is the cluster size (default 5; minimum 3).
	Sites int
	// Seed drives every storm decision.
	Seed int64
	// Steps is the number of storm steps (default 12).
	Steps int
	// StepPause separates storm steps (default 25ms).
	StepPause time.Duration
	// Upgrades is the number of mid-storm protocol-version bumps
	// (Site.ProposeUpgrade) raced against the faults; each acked bump
	// makes every surviving replica hot-swap its app microprotocol
	// through a live epoch swap. 0 disables upgrades.
	Upgrades int
}

// DReport is the outcome of one distributed storm.
type DReport struct {
	Backend string
	Seed    int64
	Sites   int

	// Storm activity.
	Crashes, Restarts, Partitions, Heals, RateFlips int
	WritesAcked, WritesFailed                       int
	UpgradesProposed, UpgradesFailed                int

	// Invariant outcomes.
	Converged   bool               // all replicas ended with the same map
	LostWrites  []string           // acked keys missing or wrong on some replica
	FinalViews  []string           // one per site; all must match
	WedgedSites []transport.NodeID // sites whose post-storm write failed
	SiteErrs    []error            // computation errors surfaced after Stop
	SettleErr   error              // non-nil: convergence deadline passed

	// Upgrade invariants (populated when DConfig.Upgrades > 0).
	WantProto       uint16   // highest acked protocol bump (0: none acked)
	FinalProto      uint16   // converged app version reported by site 0
	ProtoDivergence []string // sites disagreeing on app version or stack epoch
}

// Err returns nil when the storm satisfied every distributed invariant.
func (r *DReport) Err() error {
	var errs []error
	tag := fmt.Sprintf("dchaos[%s seed=%d]", r.Backend, r.Seed)
	if r.SettleErr != nil {
		errs = append(errs, fmt.Errorf("%s: %w", tag, r.SettleErr))
	}
	if !r.Converged {
		errs = append(errs, fmt.Errorf("%s: replicas did not converge post-heal", tag))
	}
	if len(r.LostWrites) > 0 {
		errs = append(errs, fmt.Errorf("%s: acked writes lost: %v", tag, r.LostWrites))
	}
	for i := 1; i < len(r.FinalViews); i++ {
		if r.FinalViews[i] != r.FinalViews[0] {
			errs = append(errs, fmt.Errorf("%s: split-brain: site 0 sees %s, site %d sees %s",
				tag, r.FinalViews[0], i, r.FinalViews[i]))
			break
		}
	}
	if len(r.WedgedSites) > 0 {
		errs = append(errs, fmt.Errorf("%s: wedged sites (post-storm write failed): %v", tag, r.WedgedSites))
	}
	for _, err := range r.SiteErrs {
		errs = append(errs, fmt.Errorf("%s: site error: %w", tag, err))
	}
	if r.WantProto > 0 && r.FinalProto < r.WantProto {
		errs = append(errs, fmt.Errorf("%s: acked upgrade lost: converged on app v%d, want v%d",
			tag, r.FinalProto, r.WantProto))
	}
	for _, msg := range r.ProtoDivergence {
		errs = append(errs, fmt.Errorf("%s: upgrade divergence: %s", tag, msg))
	}
	return errors.Join(errs...)
}

// String summarizes the storm for logs.
func (r *DReport) String() string {
	s := fmt.Sprintf("dchaos[%s seed=%d]: %d sites — %d crashes, %d restarts, %d partitions, %d heals, %d rate flips; %d writes acked, %d failed; converged=%v",
		r.Backend, r.Seed, r.Sites, r.Crashes, r.Restarts, r.Partitions, r.Heals, r.RateFlips,
		r.WritesAcked, r.WritesFailed, r.Converged)
	if r.UpgradesProposed+r.UpgradesFailed > 0 {
		s += fmt.Sprintf("; %d upgrades acked, %d failed, app v%d", r.UpgradesProposed, r.UpgradesFailed, r.FinalProto)
	}
	return s
}

// fabric abstracts one cluster substrate: which transport hosts each
// site, and how faults reach every wrapper.
type fabric struct {
	site     func(id transport.NodeID) transport.Transport
	wrappers []*faultnet.Net // every distinct wrapper (one for simnet, N for udpnet)
	crash    func(id transport.NodeID)
	restart  func(id transport.NodeID) bool
	close    func()
}

func newFabric(backend string, sites int, seed int64) (*fabric, error) {
	switch backend {
	case "", "simnet":
		fn := faultnet.New(faultnet.Config{Inner: simnet.New(simnet.Config{Nodes: sites}), Seed: seed})
		return &fabric{
			site:     func(transport.NodeID) transport.Transport { return fn },
			wrappers: []*faultnet.Net{fn},
			crash:    func(id transport.NodeID) { fn.Crash(id) },
			restart:  fn.Restart,
			close:    fn.Close,
		}, nil
	case "udpnet":
		nets, err := udpnet.NewCluster(sites)
		if err != nil {
			return nil, err
		}
		wrappers := make([]*faultnet.Net, sites)
		for i, n := range nets {
			// One wrapper per node process, all sharing the seed: the
			// per-directed-link RNG keying makes the fault streams
			// identical to the single-wrapper simnet arrangement.
			wrappers[i] = faultnet.New(faultnet.Config{Inner: n, Seed: seed})
		}
		return &fabric{
			site:     func(id transport.NodeID) transport.Transport { return wrappers[id] },
			wrappers: wrappers,
			crash:    func(id transport.NodeID) { wrappers[id].Crash(id) },
			restart:  func(id transport.NodeID) bool { return wrappers[id].Restart(id) },
			close: func() {
				for _, w := range wrappers {
					w.Close()
				}
			},
		}, nil
	default:
		return nil, fmt.Errorf("dchaos: unknown backend %q", backend)
	}
}

func (f *fabric) partition(groups ...[]transport.NodeID) {
	for _, w := range f.wrappers {
		w.Partition(groups...)
	}
}

func (f *fabric) heal() {
	for _, w := range f.wrappers {
		w.Heal()
	}
}

func (f *fabric) setRates(r faultnet.Rates) {
	for _, w := range f.wrappers {
		w.SetRates(r)
	}
}

// DRun executes one distributed storm and reports what survived.
func DRun(cfg DConfig) (*DReport, error) {
	if cfg.Sites == 0 {
		cfg.Sites = 5
	}
	if cfg.Sites < 3 {
		return nil, errors.New("dchaos: need at least 3 sites")
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 12
	}
	if cfg.StepPause <= 0 {
		cfg.StepPause = 25 * time.Millisecond
	}
	backend := cfg.Backend
	if backend == "" {
		backend = "simnet"
	}

	fab, err := newFabric(backend, cfg.Sites, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer fab.close()

	rep := &DReport{Backend: backend, Seed: cfg.Seed, Sites: cfg.Sites}
	ids := make([]transport.NodeID, cfg.Sites)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	view := gc.NewView(ids...)
	stores := make([]*kvstore.Store, cfg.Sites)
	for i, id := range ids {
		stores[i] = kvstore.New(kvstore.Config{
			Net: fab.site(id), ID: id, InitialView: view,
			OpTimeout: 5 * time.Second,
			Site: gc.Config{
				FDInterval: 10 * time.Millisecond, SuspectAfter: 80 * time.Millisecond,
				RTO: 20 * time.Millisecond,
			},
		})
		stores[i].Start()
	}
	stopped := false
	defer func() {
		if !stopped {
			for _, s := range stores {
				s.Stop()
			}
		}
	}()

	// Storm state: which sites' transport nodes are down, and which sit
	// on the minority side of the current partition. Every step keeps a
	// healthy majority — at least quorum sites up and mutually connected
	// — so the group as a whole always makes progress.
	rng := rand.New(rand.NewSource(cfg.Seed))
	quorum := cfg.Sites/2 + 1
	crashed := make(map[transport.NodeID]bool)
	minority := make(map[transport.NodeID]bool)
	chaosOn := false
	healthy := func() []transport.NodeID {
		var out []transport.NodeID
		for _, id := range ids {
			if !crashed[id] && !minority[id] {
				out = append(out, id)
			}
		}
		return out
	}
	ledger := make(map[string]string) // acked writes: key → value
	write := func(tag string) {
		h := healthy()
		if len(h) < quorum {
			return
		}
		site := h[rng.Intn(len(h))]
		key := fmt.Sprintf("%s-%d", tag, rep.WritesAcked+rep.WritesFailed)
		val := fmt.Sprintf("by-%d", site)
		if err := stores[site].Put(key, val); err != nil {
			rep.WritesFailed++
			return
		}
		rep.WritesAcked++
		ledger[key] = val
	}

	// Upgrade schedule: which storm steps additionally propose a protocol
	// bump through a healthy site. Versions ascend from 2; '^' rides the
	// same total order as every membership op, so survivors converge even
	// when the proposer is immediately partitioned or crashed afterwards.
	upgradeAt := make(map[int]bool, cfg.Upgrades)
	for len(upgradeAt) < cfg.Upgrades && len(upgradeAt) < cfg.Steps {
		upgradeAt[rng.Intn(cfg.Steps)] = true
	}
	nextProto := uint16(2)
	propose := func() {
		h := healthy()
		if len(h) < quorum {
			return
		}
		site := h[rng.Intn(len(h))]
		p := nextProto
		nextProto++
		if err := stores[site].Site().ProposeUpgrade(p); err != nil {
			rep.UpgradesFailed++
			return
		}
		rep.UpgradesProposed++
		rep.WantProto = p
	}

	write("warmup")
	for step := 0; step < cfg.Steps; step++ {
		switch rng.Intn(6) {
		case 0: // crash a transport node, keeping a healthy majority
			h := healthy()
			if len(h) > quorum {
				id := h[rng.Intn(len(h))]
				fab.crash(id)
				crashed[id] = true
				rep.Crashes++
			}
		case 1: // restart a crashed node
			for _, id := range ids {
				if crashed[id] {
					fab.restart(id)
					delete(crashed, id)
					rep.Restarts++
					break
				}
			}
		case 2: // partition off a minority, healing any previous split
			fab.heal()
			minority = make(map[transport.NodeID]bool)
			k := 1 + rng.Intn((cfg.Sites-1)/2)
			perm := rng.Perm(cfg.Sites)
			var minor []transport.NodeID
			for _, i := range perm[:k] {
				minor = append(minor, ids[i])
				minority[ids[i]] = true
			}
			if len(healthy()) >= quorum {
				var major []transport.NodeID
				for _, id := range ids {
					if !minority[id] {
						major = append(major, id)
					}
				}
				fab.partition(major, minor)
				rep.Partitions++
			} else { // crashes already ate the margin: stay healed
				minority = make(map[transport.NodeID]bool)
			}
		case 3: // heal
			fab.heal()
			minority = make(map[transport.NodeID]bool)
			rep.Heals++
		case 4: // toggle message chaos
			chaosOn = !chaosOn
			if chaosOn {
				fab.setRates(stormRates)
			} else {
				fab.setRates(faultnet.Rates{})
			}
			rep.RateFlips++
		case 5: // write burst
			write("burst")
			write("burst")
		}
		if upgradeAt[step] {
			propose()
		}
		write("step")
		time.Sleep(cfg.StepPause)
	}

	// Lift every fault and let the cluster settle.
	for _, id := range ids {
		if crashed[id] {
			fab.restart(id)
			delete(crashed, id)
			rep.Restarts++
		}
	}
	fab.heal()
	fab.setRates(faultnet.Rates{})

	// Wedge probe: a write through every site must complete — this
	// exercises the full stack (admission, consensus, delivery) per site.
	for _, id := range ids {
		key := fmt.Sprintf("probe-%d", id)
		if err := stores[id].Put(key, "alive"); err != nil {
			rep.WedgedSites = append(rep.WedgedSites, id)
		} else {
			ledger[key] = "alive"
			rep.WritesAcked++
		}
	}

	// Convergence: every replica must reach the same map, containing
	// every acked write.
	deadline := time.Now().Add(settleTimeout)
	for {
		ref := stores[0].SnapshotMap()
		same := true
		for _, s := range stores[1:] {
			if !reflect.DeepEqual(ref, s.SnapshotMap()) {
				same = false
				break
			}
		}
		// Every acked protocol bump must land on every replica: same app
		// version everywhere, at least the highest acked one.
		for _, s := range stores {
			if v := s.Site().AppVersion(); v < rep.WantProto || (rep.WantProto > 0 && v != stores[0].Site().AppVersion()) {
				same = false
				break
			}
		}
		if same {
			rep.Converged = true
			break
		}
		if time.Now().After(deadline) {
			rep.SettleErr = fmt.Errorf("convergence deadline (%v) passed", settleTimeout)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, s := range stores {
		m := s.SnapshotMap()
		for k, v := range ledger {
			if got, ok := m[k]; !ok || got != v {
				rep.LostWrites = append(rep.LostWrites, k)
			}
		}
	}
	slices.Sort(rep.LostWrites)
	rep.LostWrites = slices.Compact(rep.LostWrites)
	for _, s := range stores {
		rep.FinalViews = append(rep.FinalViews, s.Site().View().String())
	}
	// Upgrade convergence: every replica must agree on the app version,
	// the view's protocol field (also covered by the split-brain check —
	// View.String renders it), and the stack epoch: one live swap per
	// applied bump, identical everywhere because '^' is totally ordered.
	rep.FinalProto = stores[0].Site().AppVersion()
	refEpoch := stores[0].Site().Epoch()
	for i, s := range stores {
		if v := s.Site().AppVersion(); v != rep.FinalProto {
			rep.ProtoDivergence = append(rep.ProtoDivergence,
				fmt.Sprintf("site %d runs app v%d, site 0 runs v%d", i, v, rep.FinalProto))
		}
		if p := s.Site().View().Proto(); rep.WantProto > 0 && p != rep.FinalProto {
			rep.ProtoDivergence = append(rep.ProtoDivergence,
				fmt.Sprintf("site %d view proto v%d does not match app v%d", i, p, rep.FinalProto))
		}
		if e := s.Site().Epoch(); e != refEpoch {
			rep.ProtoDivergence = append(rep.ProtoDivergence,
				fmt.Sprintf("site %d at stack epoch %d, site 0 at %d", i, e, refEpoch))
		}
	}

	// Clean drain: Stop everywhere, then collect computation errors.
	stopped = true
	for _, s := range stores {
		s.Stop()
	}
	for i, s := range stores {
		for _, err := range s.Errs() {
			rep.SiteErrs = append(rep.SiteErrs, fmt.Errorf("site %d: %w", i, err))
		}
	}
	return rep, nil
}

// Backends lists the substrates DRun accepts, for battery tests.
func Backends() []string { return []string{"simnet", "udpnet"} }
