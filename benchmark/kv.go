package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/kvstore"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/udpnet"
)

// The kv_* workloads share one system: three in-process kvstore replicas
// under cc.NewVCABasic() with the failure detector off and RTO 100 ms —
// E12's benign configuration, so these are not fault-tolerant-mode numbers.
// Put only, 64-byte values, keys uniform over 10 000, client i on replica
// i mod 3, every acked Put followed by a Get read-your-write probe.
const (
	kvReplicas  = 3
	kvKeys      = 10000
	kvValueLen  = 64
	kvWarmupOps = 2000

	// The open loops' periods are deliberately not divisors of the stack's
	// 50 ms retransmission tick (RTO/2): with 2.5 ms and 25 ms every run
	// would meet the tick at one fixed phase, a different one each run, and
	// latency would differ by run instead of by system. These periods sweep
	// through every phase in a second or two.
	pacedGap      = 2530 * time.Microsecond  // ≈395 ops/s, evenly spaced
	burstSize     = 16                       // Puts per burst
	burstInterval = 25600 * time.Microsecond // 625 ops/s
	inFlightCap   = 64                       // open loops refuse ops beyond this many outstanding
)

type kvWorkload struct {
	name  string
	net   string // "udp": one udpnet per replica over loopback; "sim": one shared zero-delay simnet
	shape string // "closed", "paced" or "burst"
}

// Op states in an opLog.
const (
	opNone  uint8 = iota
	opAcked       // Put returned nil
	opMaybe       // Put returned an error: it may still be applied
)

// opLog is what one client asked for, by op index, for the output checks.
type opLog struct {
	keys  []int32
	state []uint8
}

func (l *opLog) set(k int, key int32, state uint8) {
	for len(l.keys) <= k {
		l.keys = append(l.keys, 0)
		l.state = append(l.state, opNone)
	}
	l.keys[k], l.state[k] = key, state
}

func keyName(key int) string { return fmt.Sprintf("k%05d", key) }

// opValue is unique per op and says which op wrote it, so the final map can
// be checked against what clients were acked for.
func opValue(client, k, key int) string {
	v := fmt.Sprintf("c%d/%d/k%05d/", client, k, key)
	return v + strings.Repeat("x", kvValueLen-len(v))
}

func parseValue(v string) (client, k, key int, ok bool) {
	n, err := fmt.Sscanf(v, "c%d/%d/k%d/", &client, &k, &key)
	return client, k, key, err == nil && n == 3 && len(v) == kvValueLen
}

type kvCluster struct {
	wl      kvWorkload
	seed    int64
	clients int // closed-loop clients

	stores []*kvstore.Store
	ctrls  []*cc.VCABasic
	raw    []transport.Transport // the distinct transports: 3 for udp, 1 for sim
	tr     *tracer               // nil when untraced

	logs        map[int]*opLog // by client id; filled before the clients run
	acked       atomic.Uint64
	maybe       atomic.Uint64
	probeMiss   atomic.Uint64
	viewChanges atomic.Uint64
}

// startKV builds and starts the replicas and runs the fixed warm-up.
func startKV(wl kvWorkload, tr *tracer, seed int64, clients int) (*kvCluster, error) {
	c := &kvCluster{wl: wl, seed: seed, clients: clients, tr: tr, logs: make(map[int]*opLog)}
	nets := make([]transport.Transport, kvReplicas)
	switch wl.net {
	case "udp":
		us, err := udpnet.NewCluster(kvReplicas)
		if err != nil {
			return nil, err
		}
		for i, u := range us {
			nets[i] = u
			c.raw = append(c.raw, u)
		}
	case "sim":
		// MinDelay = MaxDelay = 0: in-line delivery, so latency is
		// processor time only — by design.
		sn := simnet.New(simnet.Config{Nodes: kvReplicas, Seed: seed})
		for i := range nets {
			nets[i] = sn
		}
		c.raw = append(c.raw, sn)
	default:
		return nil, fmt.Errorf("unknown net %q", wl.net)
	}
	ids := make([]transport.NodeID, kvReplicas)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	view := gc.NewView(ids...)
	for i := 0; i < kvReplicas; i++ {
		inner := cc.NewVCABasic()
		c.ctrls = append(c.ctrls, inner)
		var ctrl core.Controller = inner
		net := nets[i]
		if tr != nil {
			ctrl = wrapController(inner, tr.sites[i])
			net = tracedNet{net, tr.sites[i]}
		}
		s := kvstore.New(kvstore.Config{
			Net: net, ID: ids[i], InitialView: view,
			Site: gc.Config{
				Controller:   ctrl,
				FDInterval:   -1,
				RTO:          100 * time.Millisecond,
				OnViewChange: func(*gc.View) { c.viewChanges.Add(1) },
			},
		})
		c.stores = append(c.stores, s)
	}
	for _, s := range c.stores {
		s.Start()
	}
	c.closed(1000, 0, (kvWarmupOps+clients-1)/clients)
	return c, nil
}

// put is one operation: the replicated Put, then the read-your-write probe
// on the same replica. sequential says that the client issues one op at a
// time, so an earlier value of its own must never come back.
func (c *kvCluster) put(replica, client, k, key int, log *opLog, sequential bool) error {
	s := c.stores[replica]
	name, val := keyName(key), opValue(client, k, key)
	var st *siteTrace
	var t0, b0 int64
	if c.tr != nil {
		st = c.tr.sites[replica]
		b0, t0 = st.busyNow(), nowNs()
	}
	err := s.Put(name, val)
	if st != nil {
		t1 := nowNs()
		st.putSelfNs.record((t1 - t0) - (st.busyNow() - b0))
		st.rootSpan("kvstore.put", t0, t1)
	}
	if err != nil {
		c.maybe.Add(1)
		log.set(k, int32(key), opMaybe)
		return err
	}
	c.acked.Add(1)
	log.set(k, int32(key), opAcked)

	var g0 int64
	if st != nil {
		g0 = nowNs()
	}
	got, _ := s.Get(name)
	if st != nil {
		st.getNs.record(nowNs() - g0)
	}
	// The replica applies in total order, so after our Put the key holds
	// our value or a later write's; a concurrent op's value for this key
	// is a hit, anything else is a lost or misplaced write.
	if got != val {
		gotClient, gotK, gotKey, ok := parseValue(got)
		if !ok || gotKey != key || (sequential && gotClient == client && gotK < k) {
			c.probeMiss.Add(1)
		}
	}
	return nil
}

func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)))
}

// closed runs the closed loop: client i (ids from idBase) on replica
// i mod 3, keys drawn from the client's own seeded stream.
func (c *kvCluster) closed(idBase int, d time.Duration, perClient int) *window {
	rngs := make([]*rand.Rand, c.clients)
	logs := make([]*opLog, c.clients)
	for i := range rngs {
		rngs[i] = clientRand(c.seed, idBase+i)
		logs[i] = &opLog{}
		c.logs[idBase+i] = logs[i]
	}
	return closedLoop(c.clients, d, perClient, func(i, k int) error {
		return c.put(i%kvReplicas, idBase+i, k, rngs[i].Intn(kvKeys), logs[i], true)
	})
}

// open runs an open loop of n ops as client 0; op k goes to replica
// k mod 3 with a key fixed by the seed before the loop starts.
func (c *kvCluster) open(n int, due func(k int) time.Duration) *window {
	rng := clientRand(c.seed, 0)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(kvKeys)
	}
	log := &opLog{keys: make([]int32, n), state: make([]uint8, n)}
	c.logs[0] = log
	return openLoop(wallClock{nowNs()}, n, due, inFlightCap, func(f func()) { go f() }, func(k int) error {
		return c.put(k%kvReplicas, 0, k, keys[k], log, false)
	})
}

func (c *kvCluster) load(d time.Duration) *window {
	switch c.wl.shape {
	case "paced":
		return c.open(int(d/pacedGap), func(k int) time.Duration { return time.Duration(k) * pacedGap })
	case "burst":
		n := int(d/burstInterval) * burstSize
		return c.open(n, func(k int) time.Duration { return time.Duration(k/burstSize) * burstInterval })
	}
	return c.closed(0, d, 0)
}

// drain waits until every replica has applied the same number of ops and
// that number accounts for every acked one.
func (c *kvCluster) drain() bool {
	deadline := time.Now().Add(10 * time.Second)
	for {
		a := c.stores[0].Applied()
		same := true
		for _, s := range c.stores[1:] {
			same = same && s.Applied() == a
		}
		if same && a >= c.acked.Load() && a <= c.acked.Load()+c.maybe.Load() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// kvCounters are the monotonic counters the program keeps by itself.
type kvCounters struct {
	sent, drops  uint64 // datagrams; drops: inbox overflow + oversize + send errors
	applied      uint64
	fast, slow   uint64
	stale, pumps uint64
}

func (c *kvCluster) counters() kvCounters {
	var k kvCounters
	for _, n := range c.raw {
		s := n.Stats()
		k.sent += s.Sent
		k.drops += s.DroppedOverflow + s.DroppedOversize + s.SendErrors
	}
	for i, s := range c.stores {
		k.applied += s.Applied()
		f, sl := c.ctrls[i].SpawnStats()
		k.fast, k.slow = k.fast+f, k.slow+sl
		k.stale += s.Site().DroppedStale()
		k.pumps += s.Site().PumpRetries()
	}
	return k
}

func (c *kvCluster) measure(d time.Duration) measured {
	c.drain()
	if c.tr != nil {
		c.tr.reset()
	}
	before := c.counters()
	var m measured
	g := watchGoroutines()
	m.procA = readProc()
	m.w = c.load(d)
	m.procB = readProc()
	m.peak = g.stop()
	c.drain()
	m.free = kvFreeMetrics(before, c.counters(), m.w.acked())
	return m
}

func (c *kvCluster) finish() []string {
	var bad []string
	if !c.drain() {
		bad = append(bad, "replicas did not converge on one applied count within 10 s")
	}
	acked, maybe := c.acked.Load(), c.maybe.Load()
	ref := c.stores[0].SnapshotMap()
	for i, s := range c.stores {
		if a := s.Applied(); a < acked || a > acked+maybe {
			bad = append(bad, fmt.Sprintf("replica %d applied %d ops; %d were acked and %d more may have been applied", i, a, acked, maybe))
		}
		if i == 0 {
			continue
		}
		m := s.SnapshotMap()
		same := len(m) == len(ref)
		for k, v := range ref {
			same = same && m[k] == v
		}
		if !same {
			bad = append(bad, fmt.Sprintf("replica %d's map differs from replica 0's", i))
		}
	}
	for name, v := range ref {
		client, k, key, ok := parseValue(v)
		log := c.logs[client]
		if !ok || keyName(key) != name || log == nil || k >= len(log.keys) || int(log.keys[k]) != key || log.state[k] == opNone {
			bad = append(bad, fmt.Sprintf("key %s holds %q, which no client was acked for", name, v))
			break
		}
	}
	if n := c.probeMiss.Load(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d read-your-write probes missed", n))
	}
	if n := c.viewChanges.Load(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d view changes in a run with no faults", n))
	}
	for i, s := range c.stores {
		s.Stop()
		if errs := s.Errs(); len(errs) != 0 {
			bad = append(bad, fmt.Sprintf("replica %d recorded %d errors, first: %v", i, len(errs), errs[0]))
		}
	}
	for _, n := range c.raw {
		n.Close()
	}
	return bad
}
