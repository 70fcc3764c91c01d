// Package kvstore is a replicated key-value store built on the
// group-communication stack — state-machine replication, the canonical
// downstream use of total-order broadcast and the kind of application the
// paper's middleware exists to carry.
//
// Every write (Put, Delete, CAS) is atomically broadcast; every replica
// applies the decided operation sequence to its map in the same order, so
// replicas converge. A writer blocks until its own operation has been
// applied locally, which — because the apply order is total — gives
// read-your-writes on the writing replica and makes conditional writes
// (CAS) race-safe across replicas: of two concurrent CAS operations on
// one key, exactly one wins everywhere.
//
// Reads are served from the local replica (sequentially consistent per
// replica, not linearizable across replicas — the standard SMR trade-off
// unless reads are broadcast too).
package kvstore

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/gc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Op kinds on the wire.
const (
	opPut uint8 = 1
	opDel uint8 = 2
	opCAS uint8 = 3
)

// Config describes one replica.
type Config struct {
	// Net, ID, InitialView place the replica in the group (see gc.Config).
	Net         transport.Transport
	ID          transport.NodeID
	InitialView *gc.View
	// OpTimeout bounds how long a write waits for its own apply
	// (default 10s); it fires when the group has lost its quorum.
	OpTimeout time.Duration
	// Site lets tests override gc knobs; all fields except Deliver are
	// honoured (the store owns delivery).
	Site gc.Config
}

// Store is one replica of the replicated map.
type Store struct {
	site    *gc.Site
	self    transport.NodeID
	timeout time.Duration

	mu      sync.RWMutex
	data    map[string]string
	applied uint64 // operations applied, for introspection

	wmu     sync.Mutex
	nextOp  uint64
	waiters map[uint64]chan bool // op seq → apply result
}

// New builds (but does not start) a replica.
func New(cfg Config) *Store {
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 10 * time.Second
	}
	s := &Store{
		self:    cfg.ID,
		timeout: cfg.OpTimeout,
		data:    make(map[string]string),
		waiters: make(map[uint64]chan bool),
	}
	sc := cfg.Site
	sc.Net = cfg.Net
	sc.ID = cfg.ID
	sc.InitialView = cfg.InitialView
	sc.Deliver = s.apply
	sc.Snapshot = s.snapshotState
	sc.InstallSnapshot = s.installSnapshot
	s.site = gc.NewSite(sc)
	return s
}

// snapshotState serialises the replicated map for state transfer to a
// joining replica. It runs inside a delivery computation, so the map is
// exactly the post-apply state at one total-order point.
func (s *Store) snapshotState() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w := wire.NewWriter(16 + 32*len(s.data))
	w.U64(s.applied)
	w.UVarint(uint64(len(s.data)))
	for k, v := range s.data {
		w.String(k)
		w.String(v)
	}
	return append([]byte(nil), w.Bytes()...)
}

// installSnapshot replaces local state with a snapshot received during
// join. Deliveries after the snapshot point re-apply on top of it.
func (s *Store) installSnapshot(snap []byte) {
	r := wire.NewReader(snap)
	applied := r.U64()
	n := r.UVarint()
	if n > uint64(len(snap)) { // length-prefixed pairs can't outnumber bytes
		return
	}
	data := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := r.String()
		v := r.String()
		if r.Err() != nil {
			return
		}
		data[k] = v
	}
	if r.Err() != nil {
		return
	}
	s.mu.Lock()
	s.data = data
	s.applied = applied
	s.mu.Unlock()
}

// Start launches the replica.
func (s *Store) Start() { s.site.Start() }

// Stop shuts the replica down.
func (s *Store) Stop() { s.site.Stop() }

// Errs surfaces computation errors from the underlying site.
func (s *Store) Errs() []error { return s.site.Errs() }

// Site exposes the underlying group-communication site (for membership
// operations in tests and examples).
func (s *Store) Site() *gc.Site { return s.site }

// encodeOp builds the broadcast payload for an operation.
func encodeOp(kind uint8, origin transport.NodeID, seq uint64, key, val, old string) []byte {
	w := wire.NewWriter(32 + len(key) + len(val) + len(old))
	w.U8(kind)
	w.U16(uint16(origin))
	w.U64(seq)
	w.String(key)
	w.String(val)
	w.String(old)
	return append([]byte(nil), w.Bytes()...)
}

// apply is the replicated state machine: it runs inside the delivery
// computation, in the same total order on every replica.
func (s *Store) apply(_ transport.NodeID, payload []byte) {
	r := wire.NewReader(payload)
	kind := r.U8()
	origin := transport.NodeID(r.U16())
	seq := r.U64()
	key := r.String()
	val := r.String()
	old := r.String()
	if r.Err() != nil {
		return // not one of ours; ignore
	}
	ok := true
	s.mu.Lock()
	switch kind {
	case opPut:
		s.data[key] = val
	case opDel:
		delete(s.data, key)
	case opCAS:
		if cur, exists := s.data[key]; exists && cur == old {
			s.data[key] = val
		} else {
			ok = false
		}
	default:
		s.mu.Unlock()
		return
	}
	s.applied++
	s.mu.Unlock()

	if origin == s.self {
		s.wmu.Lock()
		ch := s.waiters[seq]
		delete(s.waiters, seq)
		s.wmu.Unlock()
		if ch != nil {
			ch <- ok
		}
	}
}

// submit broadcasts an operation and waits for its local apply.
func (s *Store) submit(kind uint8, key, val, old string) (bool, error) {
	s.wmu.Lock()
	s.nextOp++
	seq := s.nextOp
	ch := make(chan bool, 1)
	s.waiters[seq] = ch
	s.wmu.Unlock()

	if err := s.site.ABcast(encodeOp(kind, s.self, seq, key, val, old)); err != nil {
		s.wmu.Lock()
		delete(s.waiters, seq)
		s.wmu.Unlock()
		return false, err
	}
	// A stopped timer leaves the runtime's heap at once; time.After's
	// would stay there for the whole timeout after every acked op.
	t := time.NewTimer(s.timeout)
	defer t.Stop()
	select {
	case ok := <-ch:
		return ok, nil
	case <-t.C:
		s.wmu.Lock()
		delete(s.waiters, seq)
		s.wmu.Unlock()
		return false, fmt.Errorf("kvstore: operation on %q timed out (group lost quorum?)", key)
	}
}

// Put replicates key=val; it returns once applied on this replica.
func (s *Store) Put(key, val string) error {
	_, err := s.submit(opPut, key, val, "")
	return err
}

// Delete replicates removal of key.
func (s *Store) Delete(key string) error {
	_, err := s.submit(opDel, key, "", "")
	return err
}

// CAS replicates a compare-and-swap: key moves from old to new only if it
// currently equals old — decided in the total order, so concurrent CAS
// operations on one key resolve identically on every replica.
func (s *Store) CAS(key, old, new string) (bool, error) {
	return s.submit(opCAS, key, new, old)
}

// Get reads the local replica.
func (s *Store) Get(key string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v, ok
}

// Len reports the local key count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Applied reports the number of operations applied locally.
func (s *Store) Applied() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.applied
}

// SnapshotMap copies the local state (for convergence checks).
func (s *Store) SnapshotMap() map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]string, len(s.data))
	for k, v := range s.data {
		out[k] = v
	}
	return out
}
