package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// FootprintAnalyzer checks footprint soundness, in two halves:
//
//   - a computation spawned with a literal Spec must not statically reach
//     a handler of a microprotocol absent from the declared set M;
//   - a handler that declares Handler.Emits must declare every event its
//     body triggers, since core.Derive follows only the declared ones —
//     a local check of each handler against its own body.
//
// Reachability follows the binding graph through Trigger/TriggerAll/
// AsyncTrigger/AsyncTriggerAll and Fork chains, descending into
// same-package helper functions with caller-argument bindings so events
// passed as parameters still resolve. Unresolvable specs, events or
// handler bodies make the traversal incomplete — never a finding.
var FootprintAnalyzer = &Analyzer{
	Name: "footprint",
	Doc:  "isolated computations must declare every microprotocol they can reach, and handlers every event they emit",
	Run:  runFootprint,
}

func runFootprint(pass *Pass) {
	m := pass.Model
	for _, h := range m.EmitsChecked() {
		checkEmits(pass, h)
	}
	for _, site := range m.IsoSites {
		if site.Spec == nil || !site.Spec.SpecComplete {
			continue
		}
		declared := map[*Val]bool{}
		for _, mp := range site.Spec.SpecMPs {
			declared[mp] = true
		}
		tr := &footprintWalk{m: m, stack: site.Stack, handlers: map[*Val]bool{}, visited: map[ast.Node]bool{}}
		switch site.Method {
		case "External", "ExternalAll":
			if site.Event == nil {
				continue
			}
			tr.triggerEvent(site.Event)
		case "Isolated", "IsolatedAsync":
			if site.Root == nil {
				continue
			}
			tr.walkFunc(site.Root, nil)
		}
		reached := make([]*Val, 0, len(tr.handlers))
		for h := range tr.handlers {
			reached = append(reached, h)
		}
		sort.Slice(reached, func(i, j int) bool { return posOf(reached[i]) < posOf(reached[j]) })
		for _, h := range reached {
			if h.MP != nil && !declared[h.MP] {
				pass.Reportf(site.Call.Pos(),
					"computation reaches handler %s but microprotocol %s is not in its declared spec %s — the controller will reject the call at runtime",
					h, h.MP, site.Spec.MPNames())
			}
		}
	}
}

// EmitsChecked returns the handlers the Emits half of the footprint
// check covers: those with a body and a statically known Emits set.
func (m *Model) EmitsChecked() []*Val {
	var out []*Val
	for _, h := range m.Handlers {
		if h.EmitsSeen && !h.EmitsOpen && h.Body != nil {
			out = append(out, h)
		}
	}
	return out
}

// checkEmits reports each trigger in h's body of an event its Emits does
// not declare. Events are matched by abstract value where they resolve
// and by the variable or field they are read from otherwise; a trigger
// that cannot be matched either way is a finding only when nothing is
// left to match it — every declared event resolved, or none declared.
func checkEmits(pass *Pass, h *Val) {
	m := pass.Model
	declared := map[any]bool{}
	allResolved := true
	for _, arg := range h.Emits {
		k := m.eventKey(arg, nil)
		if _, ok := k.(*Val); !ok {
			allResolved = false
		}
		declared[k] = true
	}
	tr := &footprintWalk{m: m, visited: map[ast.Node]bool{}}
	tr.onTrigger = func(call *ast.CallExpr, overlay map[types.Object]*Val) {
		k := m.eventKey(call.Args[0], overlay)
		if k == nil || declared[k] {
			return
		}
		ev, resolved := k.(*Val)
		if !(resolved && allResolved) && len(h.Emits) > 0 {
			return
		}
		name := types.ExprString(call.Args[0])
		if resolved && ev.Name != "" {
			name = ev.Name
		}
		pass.Reportf(call.Pos(), "handler %s triggers %s, which its Emits does not declare — derived specs will not cover the handlers bound to it", h, name)
	}
	tr.walkFunc(h.Body, nil)
}

// eventKey identifies the event an expression denotes: its abstract
// value where it resolves, else the variable or field it is read from
// (nil when it is neither).
func (m *Model) eventKey(e ast.Expr, overlay map[types.Object]*Val) any {
	if v := m.chase(e, overlay); v != nil {
		if v.Kind == KEvent {
			return v
		}
		return nil
	}
	if obj := m.objOf(e); obj != nil {
		return obj
	}
	return nil
}

// footprintWalk computes the handler closure of one computation root or,
// with onTrigger set, reports the trigger calls of one body instead of
// following them.
type footprintWalk struct {
	m         *Model
	stack     *Val
	handlers  map[*Val]bool
	visited   map[ast.Node]bool
	onTrigger func(call *ast.CallExpr, overlay map[types.Object]*Val)
}

// triggerEvent adds every handler bound to ev (on a compatible stack)
// and recurses into their bodies.
func (t *footprintWalk) triggerEvent(ev *Val) {
	hs, _ := t.m.BoundHandlers(t.stack, ev)
	for _, h := range hs {
		if t.handlers[h] {
			continue
		}
		t.handlers[h] = true
		if h.Body != nil {
			t.walkFunc(h.Body, nil)
		}
	}
}

// walkFunc scans one function for trigger calls, descending into Fork
// closures (inside the node already) and same-package callees with the
// call's arguments chased into an overlay environment, so helpers that
// take an event type or spec as a parameter stay resolvable.
func (t *footprintWalk) walkFunc(fn *FuncNode, overlay map[types.Object]*Val) {
	if fn == nil || fn.BodyOf() == nil || t.visited[fn.NodeOf()] {
		return
	}
	t.visited[fn.NodeOf()] = true
	type pendingCall struct {
		fn      *FuncNode
		overlay map[types.Object]*Val
	}
	var queue []pendingCall
	ast.Inspect(fn.BodyOf(), func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, isCore := coreFunc(t.m.calleeFunc(call))
		if isCore && recv == "Context" {
			switch name {
			case "Trigger", "TriggerAll", "AsyncTrigger", "AsyncTriggerAll":
				if len(call.Args) == 0 {
					break
				}
				if t.onTrigger != nil {
					t.onTrigger(call, overlay)
				} else if ev := t.m.chase(call.Args[0], overlay); ev != nil && ev.Kind == KEvent {
					t.triggerEvent(ev)
				}
			case "Fork":
				if len(call.Args) > 0 {
					// The closure is inside this body and already
					// walked; a named function gets descended into.
					if callee := t.m.funcNodeOf(call.Args[0]); callee != nil && callee.Lit == nil {
						queue = append(queue, pendingCall{fn: callee})
					}
				}
			}
			return true
		}
		if isCore && recv == "Stack" {
			// External/Isolated inside the computation spawn a *new*
			// computation with its own spec: not part of this footprint
			// (and nestediso flags the synchronous ones). Skip the whole
			// subtree so a nested root closure is not attributed here.
			return false
		}
		if callee := t.m.StaticCallee(call); callee != nil && callee.Lit == nil {
			queue = append(queue, pendingCall{fn: callee, overlay: t.argOverlay(call, callee, overlay)})
		}
		return true
	})
	for _, pc := range queue {
		t.walkFunc(pc.fn, pc.overlay)
	}
}

// argOverlay binds a callee's parameters to the abstract values of the
// call's arguments, where they resolve.
func (t *footprintWalk) argOverlay(call *ast.CallExpr, callee *FuncNode, outer map[types.Object]*Val) map[types.Object]*Val {
	params := callee.TypeOf().Params
	if params == nil || call.Ellipsis.IsValid() {
		return nil
	}
	var paramObjs []types.Object
	for _, field := range params.List {
		for _, name := range field.Names {
			paramObjs = append(paramObjs, t.m.Pkg.Info.Defs[name])
		}
	}
	if len(paramObjs) != len(call.Args) {
		return nil
	}
	var overlay map[types.Object]*Val
	for i, arg := range call.Args {
		if v := t.m.chase(arg, outer); v != nil && paramObjs[i] != nil {
			if overlay == nil {
				overlay = map[types.Object]*Val{}
			}
			overlay[paramObjs[i]] = v
		}
	}
	return overlay
}
