package ctp

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/transport"
)

// Config describes one transport endpoint.
type Config struct {
	// Net, ID, Peer place the endpoint and name its single peer.
	Net      transport.Transport
	ID, Peer transport.NodeID
	// MSS is the maximum fragment payload (default 512 bytes).
	MSS int
	// Composition flags. Ordered requires Reliable (an unreliable
	// ordered stream would stall forever at the first loss).
	Reliable, Ordered, Checksummed bool
	// RTO is ARQ's retransmission timeout (default 50ms): an unacknowledged
	// frame is resent every RTO, with no retry cap, until Stop.
	RTO time.Duration
	// Controller schedules computations (default cc.NewVCABasic()). Any
	// controller runs the endpoint: its specs are derived (core.Derive)
	// and carry M, visit bounds and the route together.
	Controller core.Controller
	// Deliver receives reassembled application messages. It runs inside
	// computations: be quick, don't block, don't call Endpoint methods
	// synchronously. One goroutine runs every received datagram's
	// computation, so a Deliver that blocks stalls the endpoint's whole
	// receive path.
	Deliver func(msg []byte)
	// Tracer, if set, observes the endpoint's stack.
	Tracer core.Tracer
}

// visitBound is the per-microprotocol visit bound every derived spec
// declares for cc.VCABound.
const visitBound = 1024

// arqWindow is ARQ's send window: the most unacknowledged frames.
const arqWindow = 32

// Endpoint is one side of a point-to-point transport connection: a SAMOA
// stack of the configured layers over one endpoint of any transport.
type Endpoint struct {
	cfg   Config
	stack *core.Stack
	node  transport.Endpoint

	seg  *Segment
	ord  *Order
	arq  *ARQ
	sum  *Checksum
	wout *WireOut

	evAppSend *core.EventType
	evRecvTop *core.EventType // first receive layer's event
	evTick    *core.EventType

	specSend, specRecv, specTick *core.Spec

	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	errMu sync.Mutex
	errs  []error
}

// NewEndpoint builds (but does not start) an endpoint.
func NewEndpoint(cfg Config) (*Endpoint, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("ctp: Config.Net required")
	}
	if cfg.Ordered && !cfg.Reliable {
		return nil, fmt.Errorf("ctp: Ordered requires Reliable (a loss would stall the stream forever)")
	}
	if cfg.MSS <= 0 {
		cfg.MSS = 512
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 50 * time.Millisecond
	}
	if cfg.Controller == nil {
		cfg.Controller = cc.NewVCABasic()
	}

	e := &Endpoint{
		cfg:  cfg,
		node: cfg.Net.Endpoint(cfg.ID),
		quit: make(chan struct{}),
	}
	opts := []core.StackOption{core.WithName("ctp")}
	if cfg.Tracer != nil {
		opts = append(opts, core.WithTracer(cfg.Tracer))
	}
	e.stack = core.NewStack(cfg.Controller, opts...)

	evDeliver := core.NewEventType("Deliver")
	e.evTick = core.NewEventType("RetransmitTick")

	// Receive events, bottom-up: one per enabled layer, then
	// segmentation's. Each layer hands what it receives to the next one's.
	var recvChain []*core.EventType
	if cfg.Checksummed {
		recvChain = append(recvChain, core.NewEventType("SumRecv"))
	}
	if cfg.Reliable {
		recvChain = append(recvChain, core.NewEventType("ArqRecv"))
	}
	if cfg.Ordered {
		recvChain = append(recvChain, core.NewEventType("OrdRecv"))
	}
	recvChain = append(recvChain, core.NewEventType("SegRecv"))
	e.evRecvTop = recvChain[0]

	// Build bottom-up: every layer sends down through the event the layer
	// below is bound to and hands up to the next receive event.
	down := core.NewEventType("WireSend")
	e.wout = newWireOut(e.node, cfg.Peer)
	e.stack.Register(e.wout.mp)
	e.stack.Bind(down, e.wout.hSend)
	// stackUp registers a layer just built over down, binds its receive
	// handler to its receive event and its send handler to a fresh send
	// event, the down of the next layer up.
	stackUp := func(mp *core.Microprotocol, send, recv *core.Handler, sendName string) {
		e.stack.Register(mp)
		e.stack.Bind(recvChain[0], recv)
		recvChain = recvChain[1:]
		down = core.NewEventType(sendName)
		e.stack.Bind(down, send)
	}
	if cfg.Checksummed {
		e.sum = newChecksum(down, recvChain[1])
		stackUp(e.sum.mp, e.sum.hSend, e.sum.hRecv, "SumSend")
	}
	if cfg.Reliable {
		e.arq = newARQ(cfg.RTO, arqWindow, down, recvChain[1])
		stackUp(e.arq.mp, e.arq.hSend, e.arq.hRecv, "ArqSend")
		e.stack.Bind(e.evTick, e.arq.hRetransmit)
	}
	if cfg.Ordered {
		e.ord = newOrder(down, recvChain[1])
		stackUp(e.ord.mp, e.ord.hSend, e.ord.hRecv, "OrdSend")
	}
	e.seg = newSegment(cfg.MSS, down, evDeliver)
	stackUp(e.seg.mp, e.seg.hSend, e.seg.hRecv, "AppSend")
	e.evAppSend = down

	// Application delivery microprotocol.
	app := core.NewMicroprotocol("app")
	e.stack.Register(app)
	e.stack.Bind(evDeliver, app.AddHandler("deliver", func(_ *core.Context, msg core.Message) error {
		if cfg.Deliver != nil {
			cfg.Deliver(msg.([]byte))
		}
		return nil
	}).Emits())

	e.specSend = core.Derive(visitBound, e.evAppSend)
	e.specRecv = core.Derive(visitBound, e.evRecvTop)
	if e.arq != nil {
		e.specTick = core.Derive(visitBound, e.evTick)
	}
	return e, nil
}

// Start launches the receive pump and, for reliable compositions, the
// retransmission ticker.
func (e *Endpoint) Start() {
	e.wg.Add(1)
	go e.pump()
	if e.arq != nil {
		e.wg.Add(1)
		go e.ticker()
	}
}

// Stop crashes the node (unblocking the pump), waits for in-flight
// computations, then closes the stack — draining it and verifying its
// lifecycle balance (any violation lands in Errs). Stop is idempotent.
func (e *Endpoint) Stop() {
	e.stopOnce.Do(func() {
		close(e.quit)
		e.cfg.Net.Crash(e.cfg.ID)
	})
	e.wg.Wait()
	e.record(e.stack.Close())
}

// Send transmits an application message to the peer as one isolated
// computation.
func (e *Endpoint) Send(msg []byte) error {
	return e.stack.External(e.specSend, e.evAppSend, append([]byte(nil), msg...))
}

// pump runs every datagram from the peer as one receive computation on
// this goroutine. Each layer's recv triggers the next synchronously, so
// receive computations serialize on the bottom layer.
func (e *Endpoint) pump() {
	defer e.wg.Done()
	for {
		d, ok := e.node.Recv()
		if !ok {
			return
		}
		select {
		case <-e.quit:
			return // a stopping endpoint drops what is still queued
		default:
		}
		if d.From == e.cfg.Peer {
			e.record(e.stack.External(e.specRecv, e.evRecvTop, d.Payload))
		}
	}
}

// ticker runs each retransmission scan on its own goroutine;
// time.Ticker holds at most one tick during a scan and drops the rest.
func (e *Endpoint) ticker() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.RTO / 2)
	defer t.Stop()
	for {
		select {
		case <-e.quit:
			return
		case <-t.C:
		}
		e.record(e.stack.External(e.specTick, e.evTick, nil))
	}
}

func (e *Endpoint) record(err error) {
	if err == nil {
		return
	}
	e.errMu.Lock()
	e.errs = append(e.errs, err)
	e.errMu.Unlock()
}

// Errs returns computation errors recorded so far.
func (e *Endpoint) Errs() []error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return append([]error(nil), e.errs...)
}

// Retransmits reports ARQ retransmissions (0 for unreliable
// compositions).
func (e *Endpoint) Retransmits() uint64 {
	if e.arq == nil {
		return 0
	}
	return e.arq.retransmits.Load()
}

// BadFrames reports checksum-rejected datagrams (0 when the layer is
// disabled).
func (e *Endpoint) BadFrames() uint64 {
	if e.sum == nil {
		return 0
	}
	return e.sum.BadFrames()
}
