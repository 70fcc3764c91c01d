package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// Kind discriminates the abstract values the extractor tracks.
type Kind int

const (
	KMP      Kind = iota + 1 // core.NewMicroprotocol site
	KHandler                 // (*Microprotocol).AddHandler site
)

// Val is one abstract protocol value, identified by its creation call
// site: all storage locations a creation site flows into share the one
// Val. Fields beyond Kind/Call are decorations filled in by finalize.
type Val struct {
	Kind Kind
	Call *ast.CallExpr

	// The literal name argument ("" if not constant).
	Name string

	// KHandler
	MP       *Val // owning microprotocol (nil if unresolved)
	ReadOnly bool
	Body     *FuncNode // handler function body (nil if unresolved)
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

// RecvObj returns the method receiver object, or nil.
func (f *FuncNode) RecvObj(info *types.Info) types.Object {
	if f.Decl == nil || f.Decl.Recv == nil || len(f.Decl.Recv.List) == 0 || len(f.Decl.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[f.Decl.Recv.List[0].Names[0]]
}

// IsoSite is one computation-spawning call site: Stack.Isolated,
// IsolatedAsync or External.
type IsoSite struct {
	Call   *ast.CallExpr
	Method string
	Root   *FuncNode // Isolated/IsolatedAsync root closure
}

// Model is the extracted protocol model of one package, shared by all
// analyzers.
type Model struct {
	Pkg *Package

	Handlers []*Val
	IsoSites []*IsoSite

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
							if m.bind(lhs, m.chase(n.Rhs[i])) {
								changed = true
							}
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) == len(n.Values) {
						for i, name := range n.Names {
							if m.bind(name, m.chase(n.Values[i])) {
								changed = true
							}
						}
					}
				case *ast.KeyValueExpr:
					// A keyed struct literal stores into the named field.
					if f, ok := m.objOf(n.Key).(*types.Var); ok && f.IsField() && m.bind(n.Key, m.chase(n.Value)) {
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

// chase resolves an expression to its abstract value.
func (m *Model) chase(e ast.Expr) *Val {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if obj := m.objOf(e.(ast.Expr)); obj != nil {
			return m.env[obj]
		}
	case *ast.CallExpr:
		return m.siteVal(e)
	}
	return nil
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
// call site, or nil for calls that create none.
func (m *Model) siteVal(call *ast.CallExpr) *Val {
	if v, ok := m.sites[call]; ok {
		return v
	}
	recv, name, ok := coreFunc(m.calleeFunc(call))
	if !ok {
		return nil
	}
	var v *Val
	switch {
	case recv == "" && name == "NewMicroprotocol":
		v = &Val{Kind: KMP, Call: call}
	case recv == "Microprotocol" && name == "AddHandler":
		v = &Val{Kind: KHandler, Call: call}
	default:
		return nil
	}
	if len(call.Args) > 0 {
		v.Name, _ = m.strConst(call.Args[0])
	}
	m.sites[call] = v
	return v
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

// finalize decorates the handler values — owner, ReadOnly, body — and
// collects the computation-spawning sites. It runs after the environment
// is stable so receiver expressions resolve as well as they ever will.
func (m *Model) finalize() {
	for _, f := range m.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, name, ok := coreFunc(m.calleeFunc(call))
			switch {
			case !ok:
			case recv == "Microprotocol" && name == "AddHandler":
				m.decorateHandler(call)
			case recv == "Stack" && (name == "Isolated" || name == "IsolatedAsync" || name == "External"):
				site := &IsoSite{Call: call, Method: name}
				if len(call.Args) > 1 && (name == "Isolated" || name == "IsolatedAsync") {
					site.Root = m.funcNodeOf(call.Args[1])
				}
				m.IsoSites = append(m.IsoSites, site)
			}
			return true
		})
	}
}

func (m *Model) decorateHandler(call *ast.CallExpr) {
	v := m.sites[call]
	if v == nil || len(call.Args) < 2 {
		return
	}
	if mp := m.chase(recvExpr(call)); mp != nil && mp.Kind == KMP {
		v.MP = mp
	}
	v.Body = m.funcNodeOf(call.Args[1])
	for _, opt := range call.Args[2:] {
		if oc, ok := ast.Unparen(opt).(*ast.CallExpr); ok {
			if recv, name, ok := coreFunc(m.calleeFunc(oc)); ok && recv == "" && name == "ReadOnly" {
				v.ReadOnly = true
			}
		}
	}
	m.Handlers = append(m.Handlers, v)
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

// ComputationContexts returns the package's computation contexts in
// source order. The framework core itself has none: its internals sit
// below the Hook/Blocker seam (they announce their blocking to the
// scheduler), so the explorability checks trust them rather than flag
// the seam's implementation.
func (m *Model) ComputationContexts() []CompContext {
	if p := m.Pkg.ImportPath; p == "internal/core" || strings.HasSuffix(p, "/internal/core") {
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

// String renders a handler value as "mp.handler" and a microprotocol
// as its name, with "?" for what did not resolve.
func (v *Val) String() string {
	name := v.Name
	if name == "" {
		name = "?"
	}
	if v.Kind != KHandler {
		return name
	}
	mp := "?"
	if v.MP != nil {
		mp = v.MP.String()
	}
	return mp + "." + name
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
