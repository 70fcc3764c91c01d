package gc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/transport"
)

// Config describes one Site.
type Config struct {
	// Net and ID place the site on a simulated network node.
	Net transport.Transport
	ID  transport.NodeID
	// InitialView is the starting group view (must include ID).
	InitialView *View
	// Controller schedules the site's computations; default
	// cc.NewVCABasic(). Controllers must not be shared between sites.
	Controller core.Controller
	// SpecKind must match the controller (see core.SpecKind).
	SpecKind core.SpecKind
	// Bound is the per-microprotocol visit bound declared by core.SpecBound
	// computations (default 1024 — deliberately loose; the paper notes
	// that tight bounds are hard to state for recursive protocols).
	Bound int
	// BatchMax caps consensus batch sizes (default 64).
	BatchMax int
	// Deliver receives totally-ordered application payloads; RDeliver
	// receives plain reliable broadcasts; FDeliver receives FIFO-ordered
	// broadcasts; CDeliver receives causally-ordered broadcasts;
	// OnViewChange observes view installations. All run inside
	// computations: they must be quick and must not call Site methods
	// synchronously.
	Deliver      func(from transport.NodeID, data []byte)
	RDeliver     func(from transport.NodeID, data []byte)
	FDeliver     func(from transport.NodeID, data []byte)
	CDeliver     func(from transport.NodeID, data []byte)
	OnViewChange func(v *View)
	// Snapshot and InstallSnapshot are the application state-transfer
	// hooks for joining sites. When a '+' view operation is delivered,
	// every established member calls Snapshot — at a point where exactly
	// the deliveries below the shipped sync instance have run — and sends
	// the bytes to the joiner, whose InstallSnapshot replaces its state
	// before subsequent deliveries apply. Both run inside computations:
	// quick, no synchronous Site calls. Nil disables state transfer (the
	// joiner then starts empty, as before).
	Snapshot        func() []byte
	InstallSnapshot func(snap []byte)
	// RTO is the retransmission timeout (default 50ms); retransmission
	// scans run at RTO/2.
	RTO time.Duration
	// SendWindow is RelComm's flow-control window: the maximum
	// unacknowledged messages per peer (default 64; negative disables
	// flow control). Excess sends queue until acks open the window.
	SendWindow int
	// FDInterval is the failure-detector period (default 25ms; negative
	// disables the detector). SuspectAfter is the silence threshold
	// (default 6×FDInterval).
	FDInterval   time.Duration
	SuspectAfter time.Duration
	// PumpWorkers is how many long-lived workers Start launches to run
	// incoming datagrams' computations: the cap on them at once (default 32).
	PumpWorkers int
	// Tracer, if set, observes the site's stack.
	Tracer core.Tracer
	// AfterRelCastView is the E6 test hook; see RelCast.
	AfterRelCastView func()
	// Passive disables the receive pump and the timer loops: events
	// enter only through the Site methods (Inject*, ABcast, …). The E6
	// experiments use it so that, under the deliberately unsafe None
	// controller, the only concurrent computations are the two the
	// adversarial schedule orchestrates — the paper's *logical* race —
	// rather than incidental Go-level map races with pump workers.
	Passive bool
}

// entry names an external-event entry point of the stack.
type entry int

const (
	entFromNet entry = iota // a datagram with data frames (or a self-delivered batch)
	entAck                  // an ack-only datagram
	entBeat
	entFDTick
	entRetrans
	entABcast
	entRBcast
	entFBcast
	entCBcast
	entJoinLeave
	entInject
	numEntries
)

// inbound is one classified datagram on its way from the pump to a worker.
type inbound struct {
	e  entry
	et *core.EventType
	d  transport.Datagram
}

// Site is one member of the group: a full SAMOA stack (NetOut, RelComm,
// RelCast, FD, Consensus, ABcast, Membership, App) wired to a simnet
// node. Every external event — datagram, timer tick, application call —
// enters through Isolated with the spec built for that entry point.
type Site struct {
	cfg   Config
	ev    *events
	stack *core.Stack
	node  transport.Endpoint

	netout  *NetOut
	relcomm *RelComm
	relcast *RelCast
	fd      *FD
	cons    *Consensus
	ab      *ABcast
	memb    *Membership
	fifo    *Fifo
	causal  *Causal
	app     *App

	// specs holds one spec per entry point, built once: each is a
	// core.Derive request that every computation resolves against the
	// epoch it pins — so a live upgrade needs no respawn — except the
	// hand-written ack spec, over microprotocols no upgrade replaces.
	specs  [numEntries]*core.Spec
	appVer atomic.Uint32 // current app protocol version (starts at 1)

	quit     chan struct{}
	stopOnce sync.Once
	in       chan inbound // pump → workers; unbuffered, closed by the pump
	wg       sync.WaitGroup

	pumpRetries atomic.Uint64 // Recv-not-ok wakeups while the transport is down

	errMu sync.Mutex
	errs  []error
}

// NewSite builds (but does not start) a site.
func NewSite(cfg Config) *Site {
	if cfg.Net == nil || cfg.InitialView == nil {
		panic("gc: Config needs Net and InitialView")
	}
	if !cfg.InitialView.Contains(cfg.ID) {
		panic("gc: InitialView must contain the site itself")
	}
	if cfg.Controller == nil {
		cfg.Controller = cc.NewVCABasic()
	}
	if cfg.Bound <= 0 {
		cfg.Bound = 1024
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 64
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 50 * time.Millisecond
	}
	if cfg.SendWindow == 0 {
		cfg.SendWindow = 64
	}
	if cfg.FDInterval == 0 {
		cfg.FDInterval = 25 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 6 * cfg.FDInterval
	}
	if cfg.PumpWorkers <= 0 {
		cfg.PumpWorkers = 32
	}

	s := &Site{
		cfg:  cfg,
		ev:   newEvents(),
		node: cfg.Net.Endpoint(cfg.ID),
		quit: make(chan struct{}),
		in:   make(chan inbound),
	}
	opts := []core.StackOption{core.WithName("site")}
	if cfg.Tracer != nil {
		opts = append(opts, core.WithTracer(cfg.Tracer))
	}
	s.stack = core.NewStack(cfg.Controller, opts...)

	v := cfg.InitialView
	s.netout = newNetOut(s.node)
	s.relcomm = newRelComm(cfg.ID, v, cfg.RTO, cfg.SendWindow, s.ev)
	s.relcast = newRelCast(cfg.ID, v, s.ev, cfg.AfterRelCastView)
	s.fd = newFD(cfg.ID, v, cfg.SuspectAfter, s.ev)
	s.cons = newConsensus(cfg.ID, v, s.ev)
	s.ab = newABcast(cfg.ID, cfg.BatchMax, s.ev, cfg.Snapshot, cfg.InstallSnapshot)
	s.memb = newMembership(cfg.ID, v, s.ev)
	s.fifo = newFifo(cfg.ID, s.ev, cfg.FDeliver)
	s.causal = newCausal(cfg.ID, s.ev, cfg.CDeliver)
	s.app = newApp(1, cfg.Deliver, cfg.RDeliver, cfg.OnViewChange, s.maybeUpgrade)
	s.appVer.Store(1)

	s.stack.Register(s.netout.mp, s.relcomm.mp, s.relcast.mp, s.fd.mp,
		s.cons.mp, s.ab.mp, s.memb.mp, s.fifo.mp, s.causal.mp, s.app.mp)
	s.bind()
	ev := s.ev
	for e, et := range [numEntries]*core.EventType{
		entFromNet: ev.FromNet, entBeat: ev.FDBeat, entFDTick: ev.FDTick,
		entRetrans: ev.RetrTick, entABcast: ev.ABcastEv, entRBcast: ev.Bcast,
		entFBcast: ev.FifoEv, entCBcast: ev.CausalEv, entJoinLeave: ev.JoinLeave,
		entInject: ev.ADeliver,
	} {
		s.specs[e] = core.Derive(cfg.SpecKind, cfg.Bound, et)
	}
	// Acks never cascade: they touch RelComm state, and NetOut when an
	// ack opens the flow-control window for queued sends. Declare exactly
	// that, with the same visit bound as every other bound spec — one
	// datagram may carry many acks.
	switch cfg.SpecKind {
	case core.SpecRoute:
		s.specs[entAck] = core.Route(core.NewRouteGraph().
			Root(s.relcomm.hRecv).Edge(s.relcomm.hRecv, s.netout.send))
	case core.SpecBound:
		s.specs[entAck] = core.AccessBound(map[*core.Microprotocol]int{
			s.relcomm.mp: cfg.Bound, s.netout.mp: cfg.Bound,
		})
	default:
		s.specs[entAck] = core.Access(s.relcomm.mp, s.netout.mp)
	}
	return s
}

func (s *Site) bind() {
	ev := s.ev
	s.stack.Bind(ev.FromNet, s.relcomm.hRecv)
	s.stack.Bind(ev.NetSend, s.netout.send)
	s.stack.Bind(ev.SendOut, s.relcomm.hSend)
	s.stack.Bind(ev.FromRComm, s.relcast.hRecv, s.cons.hRecv, s.ab.hSync)
	s.stack.Bind(ev.Bcast, s.relcast.hBcast)
	s.stack.Bind(ev.DeliverOut, s.ab.hRecv, s.app.hRDeliver, s.fifo.hRecv, s.causal.hRecv)
	s.stack.Bind(ev.ABcastEv, s.ab.hABcast)
	s.stack.Bind(ev.FifoEv, s.fifo.hBcast)
	s.stack.Bind(ev.CausalEv, s.causal.hBcast)
	s.stack.Bind(ev.ProposeEv, s.cons.hPropose)
	s.stack.Bind(ev.Decide, s.ab.hOnDecide)
	s.stack.Bind(ev.ADeliver, s.memb.hDeliverView, s.app.hDeliver)
	// ViewChange bind order matters for E6: RelCast updates strictly
	// before RelComm, opening the paper's §3 window under None.
	s.stack.Bind(ev.ViewChange, s.relcast.hViewChange, s.relcomm.hViewChange,
		s.fd.hViewChange, s.cons.hViewChange, s.app.hViewChange)
	s.stack.Bind(ev.JoinLeave, s.memb.hJoinLeave)
	s.stack.Bind(ev.SyncReq, s.ab.hSendSync)
	s.stack.Bind(ev.PeerReset, s.relcast.hPeerReset, s.ab.hPeerReset)
	s.stack.Bind(ev.RetrTick, s.relcomm.hRetransmit)
	s.stack.Bind(ev.FDTick, s.fd.hTick)
	s.stack.Bind(ev.FDBeat, s.fd.hBeat)
	s.stack.Bind(ev.Suspect, s.cons.hSuspect)
}

// run is the one way a site-driven computation enters the stack: it
// triggers et as an isolated computation under the entry point's spec
// and, once that has ended — normally, by error or by contained panic —
// flushes the egress buffer.
func (s *Site) run(e entry, et *core.EventType, msg core.Message) error {
	defer s.flush()
	return s.stack.ExternalAll(s.specs[e], et, msg)
}

// flush puts what the site's computations have queued on the wire — one
// datagram per destination — and feeds the frames the site addressed to
// itself back into the stack, each batch as one FromNet computation on
// this goroutine. Those run after the computation that produced them has
// completed, never nested inside it, and may queue more; the loop ends
// when nothing is left. A stopping site drops what remains.
func (s *Site) flush() {
	for {
		self := s.netout.flush()
		if len(self) == 0 {
			return
		}
		for _, payload := range self {
			select {
			case <-s.quit:
				return
			default:
			}
			d := transport.Datagram{From: s.cfg.ID, To: s.cfg.ID, Payload: payload}
			if err := s.stack.ExternalAll(s.specs[entFromNet], s.ev.FromNet, d); !errors.Is(err, core.ErrClosed) {
				s.record(err)
			}
		}
	}
}

// maybeUpgrade performs a delivered protocol bump. It runs inside the
// deliverView computation — the same total-order point on every member —
// building the next App incarnation and swapping it in with one live
// Reconfigure. Replace keeps the app's isolation identity (its version
// slot continues under the new microprotocol), so in-flight computations
// of the superseded epoch serialize against the new version's; the entry
// specs, being Derive requests, name the new app in every computation
// that pins the new epoch. A bump at or below the running version is a
// no-op (duplicate or stale '^' deliveries).
func (s *Site) maybeUpgrade(proto uint16) {
	old := s.app
	if proto <= old.ver {
		return
	}
	next := newApp(proto, s.cfg.Deliver, s.cfg.RDeliver, s.cfg.OnViewChange, s.maybeUpgrade)
	if err := s.stack.Reconfigure(func(e *core.Epoch) {
		e.Replace(old.mp.Name(), next.mp)
	}); err != nil {
		// A site mid-Stop loses the race to Close; that is not an error.
		if !errors.Is(err, core.ErrClosed) {
			s.record(fmt.Errorf("gc: upgrade to v%d: %w", proto, err))
		}
		return
	}
	s.app = next
	s.appVer.Store(uint32(proto))
}

// Start launches the receive pump, its PumpWorkers workers and the timer
// loops (none in Passive mode).
func (s *Site) Start() {
	if s.cfg.Passive {
		return
	}
	s.wg.Add(1 + s.cfg.PumpWorkers)
	go s.pump()
	for i := 0; i < s.cfg.PumpWorkers; i++ {
		go s.work()
	}
	if s.cfg.FDInterval > 0 {
		s.startTicker(s.cfg.FDInterval, entFDTick, s.ev.FDTick)
	}
	s.startTicker(s.cfg.RTO/2, entRetrans, s.ev.RetrTick)
}

// Stop shuts the site down: it crashes the node (unblocking the pump),
// waits for in-flight computations to complete, then closes the stack —
// draining it and verifying its lifecycle balance (any violation lands in
// Errs). Stop is idempotent.
func (s *Site) Stop() {
	s.stopOnce.Do(func() {
		close(s.quit)
		s.cfg.Net.Crash(s.cfg.ID)
	})
	s.wg.Wait()
	s.record(s.stack.Close())
}

// pump classifies every incoming datagram (beat, ack-only, or anything
// with a data frame, so heartbeats and acks get their narrow specs) and
// hands it to a worker, blocking while all are busy; returning closes s.in.
func (s *Site) pump() {
	defer s.wg.Done()
	defer close(s.in)
	backoff := time.Millisecond
	for {
		d, ok := s.node.Recv()
		if !ok {
			// The node's incarnation crashed or the transport closed. A
			// transport Restart installs a fresh incarnation behind the
			// same Endpoint, so the pump lives until the site stops
			// (crash-recovery; RelComm's retransmission refills what the
			// outage lost), backing off exponentially, capped, so a long
			// outage idles instead of burning CPU on a 1ms poll.
			s.pumpRetries.Add(1)
			select {
			case <-s.quit:
				return
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, 250*time.Millisecond)
			continue
		}
		backoff = time.Millisecond
		if len(d.Payload) == 0 {
			continue
		}
		e, et := entFromNet, s.ev.FromNet
		switch classify(d.Payload) {
		case classBeat:
			e, et = entBeat, s.ev.FDBeat
		case classAck:
			e = entAck
		}
		select {
		case s.in <- inbound{e, et, d}:
		case <-s.quit:
			return
		}
	}
}

// work runs the computations of the datagrams the pump hands it until s.in
// closes, its only stop signal. Living as long as the site, it runs each
// deep synchronous cascade on an already-grown stack (DESIGN.md §12.1).
func (s *Site) work() {
	defer s.wg.Done()
	for in := range s.in {
		s.record(s.run(in.e, in.et, in.d))
	}
}

// startTicker runs a periodic computation on the ticker goroutine itself;
// time.Ticker holds at most one tick during a run and drops the rest.
func (s *Site) startTicker(period time.Duration, e entry, et *core.EventType) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
			s.record(s.run(e, et, nil))
		}
	}()
}

func (s *Site) record(err error) {
	if err == nil {
		return
	}
	s.errMu.Lock()
	s.errs = append(s.errs, err)
	s.errMu.Unlock()
}

// Errs returns every error recorded by the site's computations so far —
// empty in a healthy run; spec violations and decode failures land here.
func (s *Site) Errs() []error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return append([]error(nil), s.errs...)
}

// ID reports the site's node ID.
func (s *Site) ID() transport.NodeID { return s.cfg.ID }

// View returns the site's current view (as installed at RelComm).
func (s *Site) View() *View { return s.relcomm.view.Load() }

// DroppedStale reports RelComm sends dropped by the view filter — the E6
// observable for the paper's §3 Problem.
func (s *Site) DroppedStale() uint64 { return s.relcomm.DroppedStale() }

// PumpRetries reports how many times the receive pump woke to a
// still-down transport (regression observable for the pump's backoff: a
// long outage must cost dozens of wakeups, not one per millisecond).
func (s *Site) PumpRetries() uint64 { return s.pumpRetries.Load() }

// ABcast atomically (totally-ordered) broadcasts an application payload:
// one isolated computation triggering the ABcast event, per paper §4.
func (s *Site) ABcast(data []byte) error {
	return s.run(entABcast, s.ev.ABcastEv, abcastReq{kind: castApp, data: data})
}

// RBcast reliably broadcasts an application payload with no ordering
// guarantee beyond RelCast's.
func (s *Site) RBcast(data []byte) error {
	return s.run(entRBcast, s.ev.Bcast, &CastMsg{Kind: castRApp, Data: data})
}

// FBcast reliably broadcasts with FIFO order: every site delivers this
// site's FBcasts in send order.
func (s *Site) FBcast(data []byte) error {
	return s.run(entFBcast, s.ev.FifoEv, append([]byte(nil), data...))
}

// CBcast reliably broadcasts with causal order: a message is delivered
// only after everything that causally precedes it.
func (s *Site) CBcast(data []byte) error {
	return s.run(entCBcast, s.ev.CausalEv, append([]byte(nil), data...))
}

// Join proposes adding a site to the view (totally ordered, so every
// member installs the same view sequence).
func (s *Site) Join(id transport.NodeID) error {
	return s.run(entJoinLeave, s.ev.JoinLeave, joinLeaveReq{op: '+', site: id})
}

// Leave proposes removing a site from the view.
func (s *Site) Leave(id transport.NodeID) error {
	return s.run(entJoinLeave, s.ev.JoinLeave, joinLeaveReq{op: '-', site: id})
}

// ProposeUpgrade proposes a protocol-version bump: a '^' membership
// operation carried through the total order like a join or leave, so
// every member upgrades its app microprotocol — one live epoch swap per
// site — at the same delivery point. A proposal at or below the running
// version is delivered and ignored.
func (s *Site) ProposeUpgrade(proto uint16) error {
	return s.run(entJoinLeave, s.ev.JoinLeave, joinLeaveReq{op: '^', site: transport.NodeID(proto)})
}

// AppVersion reports the protocol version the site's app microprotocol
// currently runs (1 until an upgrade is delivered).
func (s *Site) AppVersion() uint16 { return uint16(s.appVer.Load()) }

// Epoch reports the stack's current configuration epoch — it advances by
// one per applied upgrade.
func (s *Site) Epoch() uint64 { return s.stack.CurrentEpoch() }

// InjectViewChange runs a local view-delivery computation, as if
// Membership had just delivered [op site] — the E6 entry point for
// reproducing the §3 race without the full join choreography.
func (s *Site) InjectViewChange(op byte, site transport.NodeID) error {
	m := CastMsg{ID: MsgID{Origin: s.cfg.ID, Seq: ^uint64(0)}, Kind: castViewChg, Op: op, Site: site}
	return s.run(entInject, s.ev.ADeliver, m)
}

// InjectDatagram feeds a raw datagram — one frame or several — into the
// stack as if it had arrived from the network, running it as a FromNet
// computation (test helper).
func (s *Site) InjectDatagram(d transport.Datagram) error {
	return s.run(entFromNet, s.ev.FromNet, d)
}

// BuildCastDatagram builds the raw datagram a RelComm at `from` would have
// emitted to carry a plain reliable broadcast — the E6 experiments use it
// to inject "the message from the crashed origin" (paper §3 Problem).
func BuildCastDatagram(from transport.NodeID, rcSeq uint64, id MsgID, data []byte) transport.Datagram {
	frame := encodeCastFrame(&CastMsg{ID: id, Kind: castRApp, Data: data})
	// Epoch 0 stands in for the crashed origin's incarnation; the
	// receiver adopts whatever epoch a peer's first datagram carries.
	return transport.Datagram{From: from, Payload: appendData(nil, 0, rcSeq, frame)}
}
