package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BlockingAnalyzer checks for explorability escapes: scheduling points
// the deterministic explorer (internal/sched) cannot see. Inside
// computation contexts (handler bodies, Fork closures, isolated roots)
// and inside methods of types implementing core.Controller, raw
// time.Sleep, channel operations, select, sync.Mutex/RWMutex locking,
// sync.WaitGroup/Cond waits and bare go statements all block or spawn
// outside the sched.Blocker/Hook seam, hiding schedules from
// cctest.Explore. Controllers should block through sched.Blocker
// waiters; handlers should use Fork and let the controller schedule.
// Short mutex critical sections inside controllers are exempt — the
// seam is about *waiting*, and controllers guard their own bookkeeping.
var BlockingAnalyzer = &Analyzer{
	Name: "blocking",
	Doc:  "handlers and controllers must not block outside the sched.Blocker seam",
	Run:  runBlocking,
}

func runBlocking(pass *Pass) {
	m := pass.Model
	visited := map[ast.Node]bool{}
	for _, cc := range m.ComputationContexts() {
		label := cc.Label
		m.WalkReachable(cc.Fn, visited, func(n ast.Node, _ *FuncNode) {
			reportBlocking(pass, n, label, false)
		})
	}
	ctrlVisited := map[ast.Node]bool{}
	for _, ctrl := range controllerMethods(m) {
		label := ctrl.label
		m.WalkReachable(ctrl.fn, ctrlVisited, func(n ast.Node, _ *FuncNode) {
			reportBlocking(pass, n, label, true)
		})
	}
	pumpVisited := map[ast.Node]bool{}
	for _, pump := range transportPumps(m) {
		label := pump.label
		m.WalkReachable(pump.fn, pumpVisited, func(n ast.Node, _ *FuncNode) {
			reportBlocking(pass, n, label, true)
		})
	}
}

// reportBlocking flags one AST node if it is a raw scheduling point.
// Inside controllers, plain mutex locking is allowed.
func reportBlocking(pass *Pass, n ast.Node, label string, inController bool) {
	m := pass.Model
	switch n := n.(type) {
	case *ast.SendStmt:
		pass.Reportf(n.Pos(), "raw channel send inside %s is invisible to the schedule explorer — block through sched.Blocker", label)
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			pass.Reportf(n.Pos(), "raw channel receive inside %s is invisible to the schedule explorer — block through sched.Blocker", label)
		}
	case *ast.SelectStmt:
		pass.Reportf(n.Pos(), "select inside %s is invisible to the schedule explorer — block through sched.Blocker", label)
	case *ast.RangeStmt:
		if t := m.Pkg.Info.TypeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				pass.Reportf(n.Pos(), "ranging over a channel inside %s is invisible to the schedule explorer — block through sched.Blocker", label)
			}
		}
	case *ast.GoStmt:
		pass.Reportf(n.Pos(), "bare go statement inside %s bypasses Fork, so the explorer and the computation's join never see the task", label)
	case *ast.CallExpr:
		fn := m.calleeFunc(n)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		path := fn.Pkg().Path()
		if path == "time" && fn.Name() == "Sleep" {
			pass.Reportf(n.Pos(), "time.Sleep inside %s stalls real time the explorer cannot virtualize — yield through the controller instead", label)
			return
		}
		if path != "sync" {
			return
		}
		recv := recvTypeName(fn)
		switch {
		case recv == "WaitGroup" && fn.Name() == "Wait",
			recv == "Cond" && fn.Name() == "Wait":
			pass.Reportf(n.Pos(), "sync.%s.%s inside %s is a blocking point the schedule explorer cannot order — use a sched.Blocker waiter", recv, fn.Name(), label)
		case (recv == "Mutex" || recv == "RWMutex") && (fn.Name() == "Lock" || fn.Name() == "RLock"):
			if !inController {
				pass.Reportf(n.Pos(), "sync.%s.%s inside %s hand-rolls synchronization the controller already provides and hides the blocking from the explorer", recv, fn.Name(), label)
			}
		}
	}
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	if n, isNamed := t.(*types.Named); isNamed {
		return n.Obj().Name()
	}
	return ""
}

type ctrlMethod struct {
	fn    *FuncNode
	label string
}

// controllerMethods finds the methods of every package-level type that
// implements core.Controller — the per-stack schedulers whose blocking
// must route through sched.Blocker to stay explorable. Methods promoted
// from embedded types count: a controller family's shared kernel
// implements most of each controller without being one itself. A method
// declaration reached from several controllers is listed once, labelled
// with the first and naming the rest, so it is reported once.
func controllerMethods(m *Model) []ctrlMethod {
	iface := controllerInterface(m.Pkg.Types)
	if iface == nil {
		return nil
	}
	var out []ctrlMethod
	at := map[*ast.FuncDecl]int{} // declaration → its entry in out
	shared := map[int][]string{}  // entry → the other controllers reaching it
	scope := m.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < mset.Len(); i++ {
			fn := mset.At(i).Obj().(*types.Func)
			decl := m.funcDecls[fn]
			if decl == nil || decl.Body == nil {
				continue
			}
			if j, ok := at[decl]; ok {
				shared[j] = append(shared[j], name)
				continue
			}
			at[decl] = len(out)
			out = append(out, ctrlMethod{
				fn:    &FuncNode{Decl: decl},
				label: "controller " + name + "." + fn.Name(),
			})
		}
	}
	for j, names := range shared {
		out[j].label += " (shared with " + strings.Join(names, ", ") + ")"
	}
	return out
}

// transportPumps finds the goroutine pumps of transport backends: in a
// package whose concrete types implement transport.Transport or
// transport.Endpoint, every function launched by a go statement and
// every time.AfterFunc callback is pump code — the socket read loops
// and delayed-delivery timers that shuttle datagrams below the
// protocol stacks. Pumps may guard their bookkeeping with mutexes
// (like controllers), but sleeps, channel operations, selects and
// nested goroutines there must be deliberate: real-network pumps
// cannot block through sched.Blocker, so each such site either drains
// through a quit-checked pattern and carries a rationale'd
// //samoa:ignore, or is a bug.
func transportPumps(m *Model) []ctrlMethod {
	if !implementsTransport(m.Pkg.Types) {
		return nil
	}
	var out []ctrlMethod
	seen := map[ast.Node]bool{}
	add := func(fn *FuncNode, label string) {
		if fn == nil || fn.BodyOf() == nil || seen[fn.NodeOf()] {
			return
		}
		seen[fn.NodeOf()] = true
		out = append(out, ctrlMethod{fn: fn, label: label})
	}
	for _, f := range m.Pkg.Files {
		var encl []string // enclosing function-name stack for labels
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if _, ok := top.(*ast.FuncDecl); ok {
					encl = encl[:len(encl)-1]
				}
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.FuncDecl:
				encl = append(encl, n.Name.Name)
			case *ast.GoStmt:
				name := "goroutine"
				if len(encl) > 0 {
					name = "goroutine started by " + encl[len(encl)-1]
				}
				if fn := m.funcNodeOf(n.Call.Fun); fn != nil {
					if fn.Decl != nil {
						name = fn.Decl.Name.Name
					}
					add(fn, "transport pump "+name)
				}
			case *ast.CallExpr:
				fn := m.calleeFunc(n)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || fn.Name() != "AfterFunc" || len(n.Args) < 2 {
					break
				}
				name := "timer"
				if len(encl) > 0 {
					name = "timer set by " + encl[len(encl)-1]
				}
				if cb := m.funcNodeOf(n.Args[1]); cb != nil {
					if cb.Decl != nil {
						name = cb.Decl.Name.Name
					}
					add(cb, "transport pump "+name)
				}
			}
			return true
		})
	}
	return out
}

// implementsTransport reports whether the package declares a concrete
// (non-interface) type implementing transport.Transport or
// transport.Endpoint.
func implementsTransport(pkg *types.Package) bool {
	var ifaces []*types.Interface
	lookup := func(p *types.Package) {
		if p == nil {
			return
		}
		if p.Path() != "internal/transport" && !strings.HasSuffix(p.Path(), "/internal/transport") {
			return
		}
		for _, name := range []string{"Transport", "Endpoint"} {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}
	lookup(pkg)
	for _, imp := range pkg.Imports() {
		lookup(imp)
	}
	if len(ifaces) == 0 {
		return false
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		for _, iface := range ifaces {
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
	}
	return false
}

// controllerInterface locates core.Controller from the package itself
// or its imports; nil when the package never touches core.
func controllerInterface(pkg *types.Package) *types.Interface {
	lookup := func(p *types.Package) *types.Interface {
		if p == nil {
			return nil
		}
		if p.Path() != "internal/core" && !strings.HasSuffix(p.Path(), "/internal/core") {
			return nil
		}
		tn, ok := p.Scope().Lookup("Controller").(*types.TypeName)
		if !ok {
			return nil
		}
		iface, _ := tn.Type().Underlying().(*types.Interface)
		return iface
	}
	if iface := lookup(pkg); iface != nil {
		return iface
	}
	for _, imp := range pkg.Imports() {
		if iface := lookup(imp); iface != nil {
			return iface
		}
	}
	return nil
}
