package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// LockOrderAnalyzer builds an interprocedural lock-acquisition graph
// over sync.Mutex/RWMutex values: every statically visible acquisition
// records which locks are already held on that path, and two locks
// acquired in opposite orders on different paths are a potential
// deadlock. Lock identity is the declared storage location (a field or
// variable's types.Object), deliberately conflating instances — the
// same granularity the model extractor uses — and anything the
// walk cannot resolve is skipped, never guessed.
//
// The canonical ascending-order idiom in internal/cc,
//
//	for _, p := range fp.lockOrder {
//		fp.states[p].spawnMu.Lock()
//	}
//
// is ordered by construction: acquisitions inside a range over a
// variable named lockOrder never contribute edges.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "two locks acquired in opposite orders on different paths deadlock",
	Run:  runLockOrder,
}

// heldLock is one lock on the walk's acquisition stack.
type heldLock struct {
	lock types.Object // the mutex's declared storage location
	base types.Object // receiver the mutex was selected from (nil if unresolved)
	name string       // source text, for diagnostics ("st.mu")
}

// lockEdge is one held→acquired observation.
type lockEdge struct {
	from, to types.Object
	pos      token.Pos // the inner acquisition site
	fromName string
	toName   string
}

type lockWalker struct {
	pass  *Pass
	m     *Model
	edges map[[2]types.Object]*lockEdge
	// doubles are same-storage-location reacquisitions with provably
	// equal receivers: guaranteed self-deadlock, reported directly.
	doubles []*lockEdge
	// walked memoizes (function, held-set) pairs so shared helpers are
	// not re-walked per call site with identical context.
	walked map[ast.Node]map[string]bool
	// onStack breaks recursion cycles along the current call path.
	onStack map[ast.Node]bool
}

func runLockOrder(pass *Pass) {
	w := &lockWalker{
		pass:    pass,
		m:       pass.Model,
		edges:   map[[2]types.Object]*lockEdge{},
		walked:  map[ast.Node]map[string]bool{},
		onStack: map[ast.Node]bool{},
	}
	// Every function declaration and every function literal is a root:
	// goroutines, handlers and plain calls all start with nothing held.
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				w.walk(&FuncNode{Decl: fd}, nil, 0)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w.walk(&FuncNode{Lit: lit}, nil, 0)
			}
			return true
		})
	}

	// An inversion is a pair with edges in both directions; report every
	// acquisition site involved, cross-referencing the opposite order.
	var found []*lockEdge
	for key, e := range w.edges {
		if _, rev := w.edges[[2]types.Object{key[1], key[0]}]; rev {
			found = append(found, e)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	fset := pass.Fset()
	for _, e := range found {
		rev := w.edges[[2]types.Object{e.to, e.from}]
		rp := fset.Position(rev.pos)
		pass.Reportf(e.pos, "acquires %s while holding %s, but %s:%d acquires them in the opposite order — lock-order inversion can deadlock",
			e.toName, e.fromName, filepath.Base(rp.Filename), rp.Line)
	}
	sort.Slice(w.doubles, func(i, j int) bool { return w.doubles[i].pos < w.doubles[j].pos })
	for _, e := range w.doubles {
		pass.Reportf(e.pos, "acquires %s twice on the same path — guaranteed self-deadlock", e.toName)
	}
}

// heldKey canonicalizes a held set for memoization.
func heldKey(held []heldLock) string {
	ids := make([]string, len(held))
	for i, h := range held {
		ids[i] = fmt.Sprintf("%p", h.lock)
	}
	sort.Strings(ids)
	key := ""
	for _, id := range ids {
		key += id + "|"
	}
	return key
}

// walk traverses fn's body in source order, maintaining the held stack
// and descending into same-package static callees with the current
// context. Function literals launched via go statements (and deferred
// literals) are separate roots, walked from the top-level loop.
func (w *lockWalker) walk(fn *FuncNode, held []heldLock, depth int) {
	body := fn.BodyOf()
	if body == nil || depth > 32 {
		return
	}
	node := fn.NodeOf()
	if w.onStack[node] {
		return
	}
	key := heldKey(held)
	if w.walked[node][key] {
		return
	}
	if w.walked[node] == nil {
		w.walked[node] = map[string]bool{}
	}
	w.walked[node][key] = true
	w.onStack[node] = true
	defer delete(w.onStack, node)

	// Locks released inside the function must not leak into the caller's
	// view, but locks the caller holds stay held throughout: work on a
	// copy seeded with the caller's stack.
	local := append([]heldLock(nil), held...)
	callerHeld := len(held)
	orderedDepth := 0

	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rs, ok := top.(*ast.RangeStmt); ok && w.isLockOrderRange(rs) {
				orderedDepth--
			}
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if fn.Lit != n {
				return false // separate root; nothing propagates across the spawn
			}
		case *ast.GoStmt:
			// A goroutine starts with nothing held; its function is
			// walked as a root of its own, not with this path's locks.
			return false
		case *ast.DeferStmt:
			// A deferred unlock means the lock is held to function end —
			// exactly what the linear walk models by ignoring it. Other
			// deferred calls run with an unknowable held set; skip them
			// rather than guess.
			return false
		case *ast.RangeStmt:
			if w.isLockOrderRange(n) {
				orderedDepth++
			}
		case *ast.CallExpr:
			w.call(n, &local, callerHeld, orderedDepth, depth)
		}
		stack = append(stack, n)
		return true
	})
}

// call handles one call expression: acquisition, release, or descent
// into a same-package callee.
func (w *lockWalker) call(call *ast.CallExpr, local *[]heldLock, callerHeld, orderedDepth, depth int) {
	fn := w.m.calleeFunc(call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		recv := recvTypeName(fn)
		if recv != "Mutex" && recv != "RWMutex" {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		lockObj := w.m.objOf(sel.X)
		if lockObj == nil {
			return // unresolvable lock value: skip, never guess
		}
		var baseObj types.Object
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			baseObj = w.m.objOf(inner.X)
		} else if _, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			baseObj = lockObj
		}
		name := exprString(w.pass.Fset(), sel.X)
		switch fn.Name() {
		case "Lock", "RLock":
			w.acquire(*local, heldLock{lock: lockObj, base: baseObj, name: name}, call.Pos(), orderedDepth)
			*local = append(*local, heldLock{lock: lockObj, base: baseObj, name: name})
		case "Unlock", "RUnlock":
			// Release the most recent matching acquisition made in this
			// function; the caller's locks are not ours to release.
			for i := len(*local) - 1; i >= callerHeld; i-- {
				if (*local)[i].lock == lockObj {
					*local = append((*local)[:i], (*local)[i+1:]...)
					break
				}
			}
		}
		return
	}
	if callee := w.m.StaticCallee(call); callee != nil && callee.Decl != nil {
		w.walk(callee, *local, depth+1)
	}
}

// acquire records the edges held→next, or a self-deadlock when next is
// provably the same lock value.
func (w *lockWalker) acquire(held []heldLock, next heldLock, pos token.Pos, orderedDepth int) {
	if orderedDepth > 0 {
		return // inside the lockOrder idiom: ordered by construction
	}
	for _, h := range held {
		if h.lock == next.lock {
			// The same declared location twice is only a certain
			// deadlock when the receivers are provably the same value;
			// distinct instances (fp.states[p] in a loop) are the
			// ordered-idiom case and stay exempt via base ambiguity.
			if h.base != nil && next.base != nil && h.base == next.base {
				w.doubles = append(w.doubles, &lockEdge{from: h.lock, to: next.lock, pos: pos, toName: next.name})
			}
			continue
		}
		key := [2]types.Object{h.lock, next.lock}
		if _, ok := w.edges[key]; !ok {
			w.edges[key] = &lockEdge{from: h.lock, to: next.lock, pos: pos, fromName: h.name, toName: next.name}
		}
	}
}

// isLockOrderRange recognizes `for _, p := range <expr>.lockOrder`:
// internal/cc compiles footprints to an ascending slot order precisely
// so multi-lock admission cannot invert.
func (w *lockWalker) isLockOrderRange(rs *ast.RangeStmt) bool {
	obj := w.m.objOf(rs.X)
	return obj != nil && obj.Name() == "lockOrder"
}

// exprString renders a small expression from source, for lock names in
// diagnostics.
func exprString(fset *token.FileSet, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(fset, e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(fset, e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(fset, e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(fset, e.X)
	}
	return "?"
}
