package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Kind discriminates the abstract values the extractor tracks.
type Kind int

const (
	KEvent   Kind = iota + 1 // core.NewEventType site
	KMP                      // core.NewMicroprotocol site
	KHandler                 // (*Microprotocol).AddHandler site
	KLookup                  // (*Microprotocol).Handler("name") site
	KStack                   // core.NewStack site
	KGraph                   // core.NewRouteGraph site
	KSpec                    // core.Access / AccessBound / Route
)

// Val is one abstract protocol value, identified by its creation call
// site: all storage locations a creation site flows into share the one
// Val. Fields beyond Kind/Call are decorations filled in by finalize.
type Val struct {
	Kind Kind
	Call *ast.CallExpr

	// KEvent, KMP: the literal name argument ("" if not constant).
	Name string

	// KMP: handlers registered on this microprotocol, by name.
	MPHandlers map[string]*Val

	// KHandler
	MP       *Val // owning microprotocol (nil if unresolved)
	ReadOnly bool
	Body     *FuncNode // handler function body (nil if unresolved)
	// Emits collects the arguments of every Handler.Emits call on the
	// handler; EmitsOpen is set when one passed a slice (ts...), so the
	// declared set is not statically known.
	Emits     []ast.Expr
	EmitsSeen bool
	EmitsOpen bool

	// KLookup: the handler the name lookup resolves to.
	Resolved *Val

	// KSpec
	SpecMPs      []*Val // declared microprotocols (KMP)
	SpecComplete bool   // every declared microprotocol resolved
	SpecGraph    *Val   // KGraph for core.Route specs

	// KGraph
	Roots         []*Val
	Edges         map[*Val][]*Val
	GraphComplete bool
}

// FuncNode is a function with a body the analyzers can walk: a function
// literal or a package-level function/method declaration.
type FuncNode struct {
	Lit  *ast.FuncLit
	Decl *ast.FuncDecl
}

// NodeOf returns the underlying AST node.
func (f *FuncNode) NodeOf() ast.Node {
	if f.Lit != nil {
		return f.Lit
	}
	return f.Decl
}

// BodyOf returns the function body (may be nil for bodyless decls).
func (f *FuncNode) BodyOf() *ast.BlockStmt {
	if f.Lit != nil {
		return f.Lit.Body
	}
	return f.Decl.Body
}

// TypeOf returns the function's type expression.
func (f *FuncNode) TypeOf() *ast.FuncType {
	if f.Lit != nil {
		return f.Lit.Type
	}
	return f.Decl.Type
}

// RecvObj returns the method receiver object, or nil.
func (f *FuncNode) RecvObj(info *types.Info) types.Object {
	if f.Decl == nil || f.Decl.Recv == nil || len(f.Decl.Recv.List) == 0 || len(f.Decl.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[f.Decl.Recv.List[0].Names[0]]
}

// Binding is one Bind/Rebind call: event type → handlers, on a stack.
type Binding struct {
	Call     *ast.CallExpr
	Stack    *Val // nil if the receiver stack is unresolved
	Event    *Val
	Handlers []*Val
	Complete bool // every bound handler resolved
}

// IsoSite is one computation-spawning call site: Stack.Isolated,
// IsolatedAsync, External or ExternalAll.
type IsoSite struct {
	Call   *ast.CallExpr
	Method string
	Stack  *Val      // nil if unresolved
	Spec   *Val      // KSpec, nil if unresolved
	Root   *FuncNode // Isolated/IsolatedAsync root closure
	Event  *Val      // External/ExternalAll event
}

// Model is the extracted protocol model of one package, shared by all
// analyzers.
type Model struct {
	Pkg *Package

	Handlers []*Val
	Bindings []*Binding
	IsoSites []*IsoSite
	Graphs   []*Val

	env       map[types.Object]*Val
	ambiguous map[types.Object]bool
	sites     map[*ast.CallExpr]*Val
	funcDecls map[*types.Func]*ast.FuncDecl
}

// ExtractModel lifts a type-checked package into its protocol model.
func ExtractModel(pkg *Package) *Model {
	m := &Model{
		Pkg:       pkg,
		env:       map[types.Object]*Val{},
		ambiguous: map[types.Object]bool{},
		sites:     map[*ast.CallExpr]*Val{},
		funcDecls: map[*types.Func]*ast.FuncDecl{},
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					m.funcDecls[fn] = fd
				}
			}
		}
	}
	m.propagate()
	m.finalize()
	return m
}

// propagate runs the flow-insensitive value-propagation fixpoint:
// creation sites are materialized and copied through assignments and
// keyed struct literals until the environment is stable. A storage
// location assigned two distinct values becomes ambiguous and resolves
// to nothing — the checks skip rather than guess.
func (m *Model) propagate() {
	for range 20 {
		changed := false
		for _, f := range m.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					m.siteVal(n)
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i, lhs := range n.Lhs {
							if m.bind(lhs, m.chase(n.Rhs[i], nil)) {
								changed = true
							}
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) == len(n.Values) {
						for i, name := range n.Names {
							if m.bind(name, m.chase(n.Values[i], nil)) {
								changed = true
							}
						}
					}
				case *ast.KeyValueExpr:
					// A keyed struct literal stores into the named field.
					if f, ok := m.objOf(n.Key).(*types.Var); ok && f.IsField() && m.bind(n.Key, m.chase(n.Value, nil)) {
						changed = true
					}
				}
				return true
			})
		}
		if !changed {
			return
		}
	}
}

// bind records that the storage location lhs holds v. It reports
// whether the environment changed.
func (m *Model) bind(lhs ast.Expr, v *Val) bool {
	if v == nil {
		return false
	}
	obj := m.objOf(lhs)
	if obj == nil || m.ambiguous[obj] {
		return false
	}
	if cur, ok := m.env[obj]; ok {
		if cur == v {
			return false
		}
		m.ambiguous[obj] = true
		delete(m.env, obj)
		return true
	}
	m.env[obj] = v
	return true
}

// objOf resolves an identifier or field selector to its types.Object.
// Field objects deliberately conflate instances: one abstract value per
// declared storage location is the granularity a static check wants.
func (m *Model) objOf(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := m.Pkg.Info.Defs[e]; obj != nil {
			return obj
		}
		return m.Pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		return m.Pkg.Info.Uses[e.Sel]
	}
	return nil
}

// chase resolves an expression to its abstract value, consulting the
// overlay (caller-argument bindings during interprocedural walks) before
// the package environment. Name lookups resolve through to the handler.
func (m *Model) chase(e ast.Expr, overlay map[types.Object]*Val) *Val {
	var v *Val
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		obj := m.objOf(e.(ast.Expr))
		if obj == nil {
			return nil
		}
		if ov, ok := overlay[obj]; ok {
			v = ov
		} else {
			v = m.env[obj]
		}
	case *ast.CallExpr:
		v = m.siteVal(e)
	}
	if v != nil && v.Kind == KLookup {
		return v.Resolved
	}
	return v
}

// calleeFunc resolves a call's static callee, if any.
func (m *Model) calleeFunc(call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := m.Pkg.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := m.Pkg.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// coreFunc classifies a function as belonging to the framework's core
// package, returning its receiver type name ("" for package functions)
// and name.
func coreFunc(fn *types.Func) (recv, name string, ok bool) {
	if fn == nil {
		return "", "", false
	}
	p := fn.Pkg()
	if p == nil || !(p.Path() == "internal/core" || strings.HasSuffix(p.Path(), "/internal/core")) {
		return "", "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if n, isNamed := t.(*types.Named); isNamed {
			recv = n.Obj().Name()
		}
	}
	return recv, fn.Name(), true
}

// recvExpr returns the receiver expression of a method call.
func recvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// siteVal materializes (and memoizes) the abstract value created by a
// call site, or nil for calls that create none. Chaining methods
// (RouteGraph.Root/Edge, Handler.Emits) resolve to their receiver's
// value so fluent construction works.
func (m *Model) siteVal(call *ast.CallExpr) *Val {
	if v, ok := m.sites[call]; ok {
		return v
	}
	recv, name, ok := coreFunc(m.calleeFunc(call))
	if !ok {
		return nil
	}
	mk := func(k Kind) *Val {
		v := &Val{Kind: k, Call: call}
		if k == KMP {
			v.MPHandlers = map[string]*Val{}
		}
		if k == KGraph {
			v.Edges = map[*Val][]*Val{}
			v.GraphComplete = true
		}
		if k == KEvent || k == KMP {
			if len(call.Args) > 0 {
				v.Name, _ = m.strConst(call.Args[0])
			}
		}
		m.sites[call] = v
		return v
	}
	switch {
	case recv == "" && name == "NewEventType":
		return mk(KEvent)
	case recv == "" && name == "NewMicroprotocol":
		return mk(KMP)
	case recv == "" && name == "NewStack":
		return mk(KStack)
	case recv == "" && name == "NewRouteGraph":
		return mk(KGraph)
	case recv == "" && (name == "Access" || name == "AccessBound" || name == "Route"):
		return mk(KSpec)
	case recv == "Microprotocol" && name == "AddHandler":
		return mk(KHandler)
	case recv == "Microprotocol" && name == "Handler":
		return mk(KLookup)
	case (recv == "RouteGraph" && (name == "Root" || name == "Edge")) ||
		(recv == "Handler" && name == "Emits"):
		v := m.chase(recvExpr(call), nil)
		if v != nil {
			m.sites[call] = v
		}
		return v
	}
	return nil
}

// strConst evaluates an expression to a constant string.
func (m *Model) strConst(e ast.Expr) (string, bool) {
	if tv, ok := m.Pkg.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	return "", false
}

// funcNodeOf resolves an expression to a walkable function: a literal,
// or a reference to a package-level function or method.
func (m *Model) funcNodeOf(e ast.Expr) *FuncNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return &FuncNode{Lit: e}
	case *ast.Ident, *ast.SelectorExpr:
		if fn, ok := m.objOf(e.(ast.Expr)).(*types.Func); ok {
			if decl := m.funcDecls[fn]; decl != nil && decl.Body != nil {
				return &FuncNode{Decl: decl}
			}
		}
	}
	return nil
}

// finalize decorates the materialized values — handler registration and
// emits, name lookups, graph edges, spec footprints — and collects
// the binding graph and computation-spawning sites. It runs after the
// environment is stable so argument expressions resolve as well as they
// ever will.
func (m *Model) finalize() {
	var lookups, graphOps, emits, specs []*ast.CallExpr
	var binds, isos []*ast.CallExpr
	for _, f := range m.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, name, ok := coreFunc(m.calleeFunc(call))
			if !ok {
				return true
			}
			switch {
			case recv == "Microprotocol" && name == "AddHandler":
				m.decorateHandler(call)
			case recv == "Microprotocol" && name == "Handler":
				lookups = append(lookups, call)
			case recv == "RouteGraph" && (name == "Root" || name == "Edge"):
				graphOps = append(graphOps, call)
			case recv == "Handler" && name == "Emits":
				emits = append(emits, call)
			case recv == "" && (name == "Access" || name == "AccessBound" || name == "Route"):
				specs = append(specs, call)
			case recv == "Stack" && (name == "Bind" || name == "Rebind"):
				binds = append(binds, call)
			case recv == "Stack" && (name == "Isolated" || name == "IsolatedAsync" || name == "External" || name == "ExternalAll"):
				isos = append(isos, call)
			}
			return true
		})
	}
	for _, call := range lookups {
		v := m.sites[call]
		mp := m.chase(recvExpr(call), nil)
		if v == nil || mp == nil || mp.Kind != KMP || len(call.Args) < 1 {
			continue
		}
		if name, ok := m.strConst(call.Args[0]); ok {
			v.Resolved = mp.MPHandlers[name]
		}
	}
	for _, call := range graphOps {
		g := m.sites[call]
		if g == nil || g.Kind != KGraph {
			continue
		}
		_, name, _ := coreFunc(m.calleeFunc(call))
		hs := make([]*Val, len(call.Args))
		for i, a := range call.Args {
			if h := m.chase(a, nil); h != nil && h.Kind == KHandler {
				hs[i] = h
			} else {
				g.GraphComplete = false
			}
		}
		if name == "Root" {
			for _, h := range hs {
				if h != nil {
					g.Roots = append(g.Roots, h)
				}
			}
		} else if len(hs) == 2 && hs[0] != nil && hs[1] != nil {
			g.Edges[hs[0]] = append(g.Edges[hs[0]], hs[1])
		}
	}
	for _, call := range emits {
		if h := m.chase(recvExpr(call), nil); h != nil && h.Kind == KHandler {
			h.EmitsSeen = true
			h.Emits = append(h.Emits, call.Args...)
			h.EmitsOpen = h.EmitsOpen || call.Ellipsis.IsValid()
		}
	}
	for _, call := range specs {
		m.decorateSpec(call)
	}
	for _, call := range binds {
		m.Bindings = append(m.Bindings, m.makeBinding(call))
	}
	for _, call := range isos {
		m.IsoSites = append(m.IsoSites, m.makeIsoSite(call))
	}
	for _, v := range m.sites {
		if v.Kind == KGraph {
			m.Graphs = append(m.Graphs, v)
		}
	}
	sort.Slice(m.Graphs, func(i, j int) bool { return m.Graphs[i].Call.Pos() < m.Graphs[j].Call.Pos() })
	sort.Slice(m.Handlers, func(i, j int) bool { return m.Handlers[i].Call.Pos() < m.Handlers[j].Call.Pos() })
	sort.Slice(m.IsoSites, func(i, j int) bool { return m.IsoSites[i].Call.Pos() < m.IsoSites[j].Call.Pos() })
}

func (m *Model) decorateHandler(call *ast.CallExpr) {
	v := m.sites[call]
	if v == nil || v.Kind != KHandler || len(call.Args) < 2 {
		return
	}
	if mp := m.chase(recvExpr(call), nil); mp != nil && mp.Kind == KMP {
		v.MP = mp
	}
	v.Name, _ = m.strConst(call.Args[0])
	v.Body = m.funcNodeOf(call.Args[1])
	for _, opt := range call.Args[2:] {
		if oc, ok := ast.Unparen(opt).(*ast.CallExpr); ok {
			if recv, name, ok := coreFunc(m.calleeFunc(oc)); ok && recv == "" && name == "ReadOnly" {
				v.ReadOnly = true
			}
		}
	}
	if v.MP != nil && v.Name != "" {
		v.MP.MPHandlers[v.Name] = v
	}
	m.Handlers = append(m.Handlers, v)
}

// decorateSpec fills in a spec value's declared footprint. Anything it
// cannot resolve to a concrete microprotocol set marks the spec
// incomplete, and the footprint check skips incomplete specs.
func (m *Model) decorateSpec(call *ast.CallExpr) {
	v := m.sites[call]
	if v == nil || v.Kind != KSpec {
		return
	}
	_, name, _ := coreFunc(m.calleeFunc(call))
	addMP := func(mp *Val) {
		if mp != nil {
			for _, have := range v.SpecMPs {
				if have == mp {
					return
				}
			}
			v.SpecMPs = append(v.SpecMPs, mp)
		}
	}
	addHandlerMP := func(h *Val) {
		if h == nil || h.MP == nil {
			v.SpecComplete = false
			return
		}
		addMP(h.MP)
	}
	v.SpecComplete = true
	switch name {
	case "Access":
		if call.Ellipsis.IsValid() {
			v.SpecComplete = false
			break
		}
		for _, a := range call.Args {
			if mp := m.chase(a, nil); mp != nil && mp.Kind == KMP {
				addMP(mp)
			} else {
				v.SpecComplete = false
			}
		}
	case "AccessBound":
		lit, ok := ast.Unparen(call.Args[0]).(*ast.CompositeLit)
		if !ok {
			v.SpecComplete = false
			break
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				v.SpecComplete = false
				continue
			}
			if mp := m.chase(kv.Key, nil); mp != nil && mp.Kind == KMP {
				addMP(mp)
			} else {
				v.SpecComplete = false
			}
		}
	case "Route":
		g := m.chase(call.Args[0], nil)
		if g == nil || g.Kind != KGraph {
			v.SpecComplete = false
			break
		}
		v.SpecGraph = g
		if !g.GraphComplete {
			v.SpecComplete = false
		}
		for _, h := range g.Roots {
			addHandlerMP(h)
		}
		for from, tos := range g.Edges {
			addHandlerMP(from)
			for _, to := range tos {
				addHandlerMP(to)
			}
		}
	}
}

func (m *Model) makeBinding(call *ast.CallExpr) *Binding {
	b := &Binding{Call: call, Complete: !call.Ellipsis.IsValid()}
	if st := m.chase(recvExpr(call), nil); st != nil && st.Kind == KStack {
		b.Stack = st
	}
	if len(call.Args) > 0 {
		if ev := m.chase(call.Args[0], nil); ev != nil && ev.Kind == KEvent {
			b.Event = ev
		}
	}
	for _, a := range call.Args[1:] {
		if h := m.chase(a, nil); h != nil && h.Kind == KHandler {
			b.Handlers = append(b.Handlers, h)
		} else {
			b.Complete = false
		}
	}
	return b
}

func (m *Model) makeIsoSite(call *ast.CallExpr) *IsoSite {
	_, name, _ := coreFunc(m.calleeFunc(call))
	site := &IsoSite{Call: call, Method: name}
	if st := m.chase(recvExpr(call), nil); st != nil && st.Kind == KStack {
		site.Stack = st
	}
	if len(call.Args) > 0 {
		if sp := m.chase(call.Args[0], nil); sp != nil && sp.Kind == KSpec {
			site.Spec = sp
		}
	}
	if len(call.Args) > 1 {
		switch name {
		case "Isolated", "IsolatedAsync":
			site.Root = m.funcNodeOf(call.Args[1])
		case "External", "ExternalAll":
			if ev := m.chase(call.Args[1], nil); ev != nil && ev.Kind == KEvent {
				site.Event = ev
			}
		}
	}
	return site
}

// BoundHandlers returns the handlers bound to ev on a stack compatible
// with st (an unresolved stack on either side matches), plus whether
// every matching binding was completely resolved.
func (m *Model) BoundHandlers(st, ev *Val) (hs []*Val, complete bool) {
	complete = true
	for _, b := range m.Bindings {
		if b.Event != ev {
			continue
		}
		if b.Stack != nil && st != nil && b.Stack != st {
			continue
		}
		hs = append(hs, b.Handlers...)
		complete = complete && b.Complete
	}
	return hs, complete
}

// StaticCallee resolves a call to a same-package function or method
// declaration the analyzers can descend into (nil otherwise).
func (m *Model) StaticCallee(call *ast.CallExpr) *FuncNode {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return &FuncNode{Lit: lit}
	}
	fn := m.calleeFunc(call)
	if fn == nil || fn.Pkg() != m.Pkg.Types {
		return nil
	}
	if decl := m.funcDecls[fn]; decl != nil && decl.Body != nil {
		return &FuncNode{Decl: decl}
	}
	return nil
}

// CompContext is one function analyzers treat as computation-context
// code: a handler body or the root closure of an isolated computation.
// Nested closures (Fork bodies, goroutines) are inside the node and
// walked with it.
type CompContext struct {
	Fn    *FuncNode
	Label string
}

// IsFrameworkPkg reports whether this package is the framework core
// itself. The runtime's own internals sit below the Hook/Blocker seam
// (they announce their blocking to the scheduler), so the explorability
// checks trust them rather than flagging the seam's implementation.
func (m *Model) IsFrameworkPkg() bool {
	return m.Pkg.ImportPath == "internal/core" || strings.HasSuffix(m.Pkg.ImportPath, "/internal/core")
}

// ComputationContexts returns the package's computation contexts in
// source order.
func (m *Model) ComputationContexts() []CompContext {
	if m.IsFrameworkPkg() {
		return nil
	}
	var out []CompContext
	seen := map[ast.Node]bool{}
	for _, h := range m.Handlers {
		if h.Body == nil || seen[h.Body.NodeOf()] {
			continue
		}
		seen[h.Body.NodeOf()] = true
		label := "handler " + h.String()
		out = append(out, CompContext{Fn: h.Body, Label: label})
	}
	for _, site := range m.IsoSites {
		if site.Root == nil || seen[site.Root.NodeOf()] {
			continue
		}
		seen[site.Root.NodeOf()] = true
		out = append(out, CompContext{Fn: site.Root, Label: "the root closure of " + site.Method})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fn.NodeOf().Pos() < out[j].Fn.NodeOf().Pos() })
	return out
}

// String renders a handler value as "mp.handler" for diagnostics.
func (v *Val) String() string {
	switch v.Kind {
	case KHandler:
		mp := "?"
		if v.MP != nil {
			mp = v.MP.String()
		}
		name := v.Name
		if name == "" {
			name = "?"
		}
		return mp + "." + name
	case KMP, KEvent:
		if v.Name != "" {
			return v.Name
		}
		return "?"
	}
	return "?"
}

// MPNames renders a spec's declared microprotocol set for diagnostics.
func (v *Val) MPNames() string {
	names := make([]string, 0, len(v.SpecMPs))
	for _, mp := range v.SpecMPs {
		names = append(names, mp.String())
	}
	sort.Strings(names)
	return "[" + strings.Join(names, " ") + "]"
}

// WalkReachable walks fn's body and, transitively, every same-package
// function it statically calls, invoking visit on each node with the
// function currently being walked. Each function is entered at most
// once per visited set, so shared helpers report once per package walk.
func (m *Model) WalkReachable(fn *FuncNode, visited map[ast.Node]bool, visit func(n ast.Node, in *FuncNode)) {
	if fn == nil || fn.BodyOf() == nil || visited[fn.NodeOf()] {
		return
	}
	visited[fn.NodeOf()] = true
	var queue []*FuncNode
	ast.Inspect(fn.BodyOf(), func(n ast.Node) bool {
		if n == nil {
			return false
		}
		visit(n, fn)
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := m.StaticCallee(call); callee != nil {
				queue = append(queue, callee)
			}
		}
		return true
	})
	for _, callee := range queue {
		m.WalkReachable(callee, visited, visit)
	}
}

// posOf is a tiny convenience for deterministic ordering of values.
func posOf(v *Val) token.Pos { return v.Call.Pos() }
