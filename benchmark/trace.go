package main

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/transport"
)

// Tracing, from outside the program under test. Two seams the code already
// exports carry every span:
//
//   - core.Controller: the stack calls Spawn/Request/Enter/Exit/
//     RootReturned/Complete around everything a computation does, naming
//     the calling handler. A wrapper times each call (the cc layer), and
//     reads a handler's execution as the interval from its Enter returning
//     to its Exit being called — the same bracket core.Tracer reports, but
//     with the caller known, which is what makes a span tree of a
//     computation whose handlers run on several goroutines.
//   - transport.Transport/Endpoint: Send is timed, Recv counted.
//
// The op-level root span, kvstore.put, is recorded by the load driver.
// Spans of one computation share its site-local id; stitching one Put
// across sites needs a wire-header change (ROADMAP item 3) and is not done
// here, so computations are roots of their own trees.
//
// A traced kv run makes ~10^7 spans and a local run ~10^8, so spans are
// folded into per-name totals and histograms as each computation completes;
// only the first rawSpanCap are also kept raw and written out at the end.

type nameID int32

// Span names 0..6 are fixed; handler names are interned after them.
const (
	nameComputation nameID = iota
	nameSpawn
	nameRequest
	nameEnter
	nameExit
	nameRootReturned
	nameComplete
	fixedNames
)

var fixedNameStrings = [fixedNames]string{
	"core.computation", "cc.spawn", "cc.request", "cc.enter", "cc.exit", "cc.rootreturned", "cc.complete",
}

// span is one interval of one computation. parent indexes the same
// computation's span list; -1 marks the root. A controller-call span
// covers the wrapper's whole stay — the inner call, then the bookkeeping
// below — so that the tracer's own time is charged to neither the calling
// handler nor core; innerNs is the part spent in the controller, which is
// what the cc metrics report.
type span struct {
	name       nameID
	parent     int32
	start, end int64
	innerNs    int64         // controller-call spans only
	h          *core.Handler // handler spans only; nil otherwise
}

// selfTimes fills self[i] with span i's duration minus the part of that
// interval its child spans cover (children may overlap one another and may
// stick out of the parent: the union is taken and clipped). A span still
// open (end == 0) is read as ending with the root. order, until and self
// are scratch of len(spans).
func selfTimes(spans []span, order []int32, until, self []int64) {
	if len(spans) == 0 {
		return
	}
	rootEnd := spans[0].end
	endOf := func(i int32) int64 {
		if e := spans[i].end; e != 0 {
			return e
		}
		return rootEnd
	}
	// Visit spans by start time so each parent meets its children in
	// order; spans are appended nearly sorted, so insertion sort is linear.
	for i := range order {
		order[i] = int32(i)
	}
	for i := 1; i < len(order); i++ {
		x := order[i]
		j := i
		for j > 0 && spans[order[j-1]].start > spans[x].start {
			order[j] = order[j-1]
			j--
		}
		order[j] = x
	}
	for i := range spans {
		self[i] = endOf(int32(i)) - spans[i].start
		until[i] = spans[i].start
	}
	for _, c := range order {
		p := spans[c].parent
		if p < 0 {
			continue
		}
		s, e := spans[c].start, endOf(c)
		if s < until[p] {
			s = until[p]
		}
		if pe := endOf(p); e > pe {
			e = pe
		}
		if e > s {
			self[p] -= e - s
			until[p] = e
		}
	}
}

type compRec struct {
	id    uint64
	spans []span
	order []int32
	until []int64
	self  []int64
}

// openIdx finds the running execution of h in the computation: the parent
// of whatever h calls next. The root expression (h == nil) is span 0.
func (r *compRec) openIdx(h *core.Handler) int32 {
	if h != nil {
		for i := len(r.spans) - 1; i > 0; i-- {
			if r.spans[i].h == h && r.spans[i].end == 0 {
				return int32(i)
			}
		}
	}
	return 0
}

type nameInfo struct {
	name string
	mp   string // handler spans: the microprotocol's name
}

// nameAgg totals the spans of one name: durNs is the sum of their
// durations (for a controller call, of innerNs) and dur its distribution.
type nameAgg struct {
	calls         uint64
	durNs, selfNs int64
	dur           *hist // fixed names only
}

// rawSpan is the written form of a span.
type rawSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Site   int    `json:"site"`
	Comp   uint64 `json:"comp"`
	Parent int    `json:"parent"` // index in the written list; -1: root
}

const rawSpanCap = 1 << 16

// tracer is the trace of one system: one siteTrace per stack.
type tracer struct {
	layer string // prefix of handler span names: "gc" or "local"
	sites []*siteTrace

	mu      sync.Mutex
	names   []nameInfo
	raw     []rawSpan
	rawFull atomic.Bool
}

func newTracer(layer string, sites int) *tracer {
	tr := &tracer{layer: layer}
	for _, n := range fixedNameStrings {
		tr.names = append(tr.names, nameInfo{name: n})
	}
	for i := 0; i < sites; i++ {
		st := &siteTrace{tr: tr, site: i,
			live:   make(map[core.Token]*compRec),
			hnames: make(map[*core.Handler]nameID),
		}
		st.resetLocked()
		tr.sites = append(tr.sites, st)
	}
	return tr
}

func (tr *tracer) intern(h *core.Handler) nameID {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	name := tr.layer + "." + h.String()
	for i := int(fixedNames); i < len(tr.names); i++ {
		if tr.names[i].name == name {
			return nameID(i)
		}
	}
	tr.names = append(tr.names, nameInfo{name: name, mp: h.MP().Name()})
	return nameID(len(tr.names) - 1)
}

func (tr *tracer) info(id nameID) nameInfo {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.names[id]
}

// keepRaw appends spans of one computation (or one rootless span) to the
// raw sample while there is room.
func (tr *tracer) keepRaw(site int, comp uint64, spans []span, nameOf func(nameID) string) {
	if tr.rawFull.Load() {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.raw)+len(spans) > rawSpanCap {
		tr.rawFull.Store(true)
		return
	}
	base := len(tr.raw)
	for _, s := range spans {
		p := -1
		if s.parent >= 0 {
			p = base + int(s.parent)
		}
		tr.raw = append(tr.raw, rawSpan{Name: nameOf(s.name), Start: s.start, End: s.end, Site: site, Comp: comp, Parent: p})
	}
}

func (tr *tracer) reset() {
	for _, st := range tr.sites {
		st.mu.Lock()
		st.resetLocked()
		st.mu.Unlock()
	}
}

// siteTrace holds one stack's spans. One mutex guards everything a
// controller call touches: a site's computations mostly run one at a time
// anyway, and one lock keeps a computation's spans, which several of its
// goroutines append to, in one consistent list.
type siteTrace struct {
	tr   *tracer
	site int

	mu       sync.Mutex
	live     map[core.Token]*compRec
	free     []*compRec
	nextComp uint64
	hnames   map[*core.Handler]nameID
	agg      []nameAgg // by nameID

	// busyNs is the time so far during which at least one computation
	// was live at this site: what a kvstore.put span subtracts to get the
	// time it waited while its own site was idle.
	active    int
	busySince int64
	busyNs    int64

	sendNs    hist
	sendBytes atomic.Uint64
	recvs     atomic.Uint64
	putSelfNs hist
	getNs     hist
}

func (st *siteTrace) resetLocked() {
	st.agg = st.agg[:0]
	for i := nameID(0); i < fixedNames; i++ {
		st.agg = append(st.agg, nameAgg{dur: new(hist)})
	}
	st.sendNs.reset()
	st.sendBytes.Store(0)
	st.recvs.Store(0)
	st.putSelfNs.reset()
	st.getNs.reset()
}

func (st *siteTrace) handlerName(h *core.Handler) nameID {
	id, ok := st.hnames[h]
	if !ok {
		id = st.tr.intern(h)
		st.hnames[h] = id
	}
	return id
}

func (st *siteTrace) begin(tok core.Token, t0, t1 int64) {
	st.mu.Lock()
	var r *compRec
	if n := len(st.free); n > 0 {
		r, st.free = st.free[n-1], st.free[:n-1]
	} else {
		r = new(compRec)
	}
	st.nextComp++
	r.id = st.nextComp
	st.live[tok] = r
	if st.active == 0 {
		st.busySince = t0
	}
	st.active++
	r.spans = append(r.spans[:0],
		span{name: nameComputation, parent: -1, start: t0},
		span{name: nameSpawn, parent: 0, start: t0, end: nowNs(), innerNs: t1 - t0})
	st.mu.Unlock()
}

// call records one controller call, which ran from t0 to t1 and was issued
// by caller's running execution. entered != nil also opens the span of the
// handler execution that a successful Enter admits.
func (st *siteTrace) call(tok core.Token, name nameID, caller, entered *core.Handler, t0, t1 int64) {
	st.mu.Lock()
	if r := st.live[tok]; r != nil {
		p := r.openIdx(caller)
		var hn nameID
		if entered != nil {
			hn = st.handlerName(entered)
		}
		t2 := nowNs()
		r.spans = append(r.spans, span{name: name, parent: p, start: t0, end: t2, innerNs: t1 - t0})
		if entered != nil {
			r.spans = append(r.spans, span{name: hn, parent: p, start: t2, h: entered})
		}
	}
	st.mu.Unlock()
}

// exit closes h's running execution at t0, the instant Exit was called,
// and records the Exit call beside it.
func (st *siteTrace) exit(tok core.Token, h *core.Handler, t0, t1 int64) {
	st.mu.Lock()
	if r := st.live[tok]; r != nil {
		p := int32(0)
		if i := r.openIdx(h); i > 0 {
			r.spans[i].end = t0
			p = r.spans[i].parent
		}
		r.spans = append(r.spans, span{name: nameExit, parent: p, start: t0, end: nowNs(), innerNs: t1 - t0})
	}
	st.mu.Unlock()
}

// end closes the computation, whose last controller call ran from t0 to
// t1, and folds its spans into the totals.
func (st *siteTrace) end(tok core.Token, t0, t1 int64) {
	st.mu.Lock()
	r := st.live[tok]
	if r == nil {
		st.mu.Unlock()
		return
	}
	delete(st.live, tok)
	t2 := nowNs()
	r.spans = append(r.spans, span{name: nameComplete, parent: 0, start: t0, end: t2, innerNs: t1 - t0})
	r.spans[0].end = t2
	st.active--
	if st.active == 0 {
		st.busyNs += t2 - st.busySince
	}
	n := len(r.spans)
	if cap(r.order) < n {
		r.order, r.until, r.self = make([]int32, 2*n), make([]int64, 2*n), make([]int64, 2*n)
	}
	r.order, r.until, r.self = r.order[:n], r.until[:n], r.self[:n]
	selfTimes(r.spans, r.order, r.until, r.self)
	for i := range r.spans {
		s := &r.spans[i]
		for int(s.name) >= len(st.agg) {
			st.agg = append(st.agg, nameAgg{})
		}
		a := &st.agg[s.name]
		d := s.innerNs
		if s.name == nameComputation || s.name >= fixedNames {
			if d = s.end - s.start; s.end == 0 {
				d = t2 - s.start
			}
		}
		a.calls++
		a.durNs += d
		a.selfNs += r.self[i]
		if a.dur != nil {
			a.dur.record(d)
		}
	}
	st.tr.keepRaw(st.site, r.id, r.spans, func(id nameID) string { return st.tr.names[id].name })
	st.free = append(st.free, r)
	st.mu.Unlock()
}

// busyNow reports busyNs as of this instant.
func (st *siteTrace) busyNow() int64 {
	st.mu.Lock()
	b := st.busyNs
	if st.active > 0 {
		b += nowNs() - st.busySince
	}
	st.mu.Unlock()
	return b
}

// rootSpan keeps a span that belongs to no computation (kvstore.put,
// transport.send) in the raw sample.
func (st *siteTrace) rootSpan(name string, t0, t1 int64) {
	if st.tr.rawFull.Load() {
		return
	}
	st.tr.keepRaw(st.site, 0, []span{{parent: -1, start: t0, end: t1}}, func(nameID) string { return name })
}

// tracedCtrl is the core.Controller wrapper. It passes the inner
// controller's token through unchanged and keys its own per-computation
// record by it, so it needs what every cc controller but None provides: a
// token that is distinct among live computations.
type tracedCtrl struct {
	inner core.Controller
	st    *siteTrace
}

// wrapController wraps inner so that the result still satisfies
// core.Reconfigurer and core.Restorer exactly when inner does: the stack
// discovers both by type assertion.
func wrapController(inner core.Controller, st *siteTrace) core.Controller {
	base := &tracedCtrl{inner: inner, st: st}
	rc, isRc := inner.(core.Reconfigurer)
	rs, isRs := inner.(core.Restorer)
	switch {
	case isRc && isRs:
		return struct {
			*tracedCtrl
			core.Reconfigurer
			restoreFwd
		}{base, rc, restoreFwd{base, rs}}
	case isRc:
		return struct {
			*tracedCtrl
			core.Reconfigurer
		}{base, rc}
	case isRs:
		return struct {
			*tracedCtrl
			restoreFwd
		}{base, restoreFwd{base, rs}}
	}
	return base
}

// restoreFwd forwards PrepareRetry: the aborted attempt's record ends and,
// if the controller grants a retry, the retry token starts a new one.
type restoreFwd struct {
	c *tracedCtrl
	r core.Restorer
}

func (f restoreFwd) PrepareRetry(t core.Token) (core.Token, bool) {
	t0 := nowNs()
	nt, ok := f.r.PrepareRetry(t)
	t1 := nowNs()
	f.c.st.end(t, t0, t1)
	if ok {
		f.c.st.begin(nt, t1, t1)
	}
	return nt, ok
}

func (c *tracedCtrl) Name() string { return c.inner.Name() }

func (c *tracedCtrl) Spawn(ctx context.Context, spec *core.Spec) (core.Token, error) {
	t0 := nowNs()
	tok, err := c.inner.Spawn(ctx, spec)
	if err == nil {
		c.st.begin(tok, t0, nowNs())
	}
	return tok, err
}

func (c *tracedCtrl) Request(t core.Token, caller, h *core.Handler) error {
	t0 := nowNs()
	err := c.inner.Request(t, caller, h)
	c.st.call(t, nameRequest, caller, nil, t0, nowNs())
	return err
}

func (c *tracedCtrl) Enter(ctx context.Context, t core.Token, caller, h *core.Handler) error {
	t0 := nowNs()
	err := c.inner.Enter(ctx, t, caller, h)
	entered := h
	if err != nil {
		entered = nil
	}
	c.st.call(t, nameEnter, caller, entered, t0, nowNs())
	return err
}

func (c *tracedCtrl) Exit(t core.Token, h *core.Handler) {
	t0 := nowNs()
	c.inner.Exit(t, h)
	c.st.exit(t, h, t0, nowNs())
}

func (c *tracedCtrl) RootReturned(t core.Token) {
	t0 := nowNs()
	c.inner.RootReturned(t)
	c.st.call(t, nameRootReturned, nil, nil, t0, nowNs())
}

func (c *tracedCtrl) Complete(t core.Token) {
	t0 := nowNs()
	c.inner.Complete(t)
	c.st.end(t, t0, nowNs())
}

// tracedNet wraps a transport so that the endpoints it hands out time
// Send and count Recv; everything else is the inner transport's.
type tracedNet struct {
	transport.Transport
	st *siteTrace
}

func (n tracedNet) Endpoint(id transport.NodeID) transport.Endpoint {
	return tracedEndpoint{n.Transport.Endpoint(id), n.st}
}

type tracedEndpoint struct {
	transport.Endpoint
	st *siteTrace
}

func (e tracedEndpoint) Send(to transport.NodeID, payload []byte) {
	t0 := nowNs()
	e.Endpoint.Send(to, payload)
	t1 := nowNs()
	e.st.sendNs.record(t1 - t0)
	e.st.sendBytes.Add(uint64(len(payload)))
	e.st.rootSpan("transport.send", t0, t1)
}

func (e tracedEndpoint) Recv() (transport.Datagram, bool) {
	d, ok := e.Endpoint.Recv()
	if ok {
		e.st.recvs.Add(1)
	}
	return d, ok
}

func (e tracedEndpoint) TryRecv() (transport.Datagram, bool) {
	d, ok := e.Endpoint.TryRecv()
	if ok {
		e.st.recvs.Add(1)
	}
	return d, ok
}
