package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AtomicsAnalyzer checks struct fields that participate in atomic
// publication protocols. A field annotated
//
//	lv atomic.Uint64 //samoa:guard mu — written only under mu
//
// declares the contract internal/cc/version.go used to state in prose:
// atomic loads are free, but atomic mutations and every plain access
// must happen with the named sibling mutex held (a function that takes
// the lock itself, or one following the *Locked naming convention). A
// field with both atomic.* and plain accesses but no guard annotation
// is the mixed-access race smell and is flagged at each plain site.
// Plain re-reads of a CompareAndSwap target inside its retry loop are
// flagged specifically: the compare value must come from the atomic
// load or the CAS can succeed against a stale read.
var AtomicsAnalyzer = &Analyzer{
	Name: "atomics",
	Doc:  "atomic fields: guard contracts, mixed atomic/plain access, CAS retry re-reads",
	Run:  runAtomics,
}

// guardSpec is one //samoa:guard annotation, resolved to objects.
type guardSpec struct {
	field     *types.Var
	guardName string
	guard     *types.Var // the sibling mutex field (nil if unresolved)
	owner     string     // struct type name, for diagnostics
	pos       token.Pos  // the annotated field, for bad-annotation reports
}

// fieldAccess is one occurrence of a tracked field in source.
type fieldAccess struct {
	field  *types.Var
	sel    *ast.SelectorExpr
	base   types.Object // receiver object ("st" in st.lv), nil if unresolved
	fn     *FuncNode    // innermost enclosing function (nil at package level)
	loop   ast.Node     // innermost enclosing for/range statement, if any
	atomic bool         // via an atomic.* operation
	mutate bool         // store/add/swap/CAS rather than load
	cas    bool         // a CompareAndSwap specifically
}

func runAtomics(pass *Pass) {
	guards := collectGuards(pass)
	for _, g := range guards {
		if g.guard == nil {
			pass.Reportf(g.pos, "//samoa:guard names %q, but %s has no sibling sync.Mutex/RWMutex field of that name", g.guardName, g.owner)
		}
	}

	accesses := collectFieldAccesses(pass, guards)

	// Partition per field.
	byField := map[*types.Var][]*fieldAccess{}
	for _, a := range accesses {
		byField[a.field] = append(byField[a.field], a)
	}
	fields := make([]*types.Var, 0, len(byField))
	for f := range byField {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })

	guardOf := map[*types.Var]*guardSpec{}
	for _, g := range guards {
		guardOf[g.field] = g
	}

	for _, f := range fields {
		as := byField[f]
		// CAS retry loops first: a plain read of the CAS target in the
		// same loop is the sharpest finding and wins over the generic
		// mixed-access report at the same site.
		casLoops := map[ast.Node]bool{}
		for _, a := range as {
			if a.cas && a.loop != nil {
				casLoops[a.loop] = true
			}
		}
		casFlagged := map[*fieldAccess]bool{}
		for _, a := range as {
			if !a.atomic && a.loop != nil && casLoops[a.loop] {
				pass.Reportf(a.sel.Pos(), "CAS retry loop re-reads %s non-atomically — the compare value can be stale; use the atomic load", fieldName(f, a))
				casFlagged[a] = true
			}
		}

		if g := guardOf[f]; g != nil && g.guard != nil {
			// Annotated field: enforce the declared contract.
			for _, a := range as {
				if casFlagged[a] {
					continue
				}
				if a.atomic && !a.mutate {
					continue // lock-free reads are the point of the protocol
				}
				if holdsGuard(pass.Model, a, g.guard) {
					continue
				}
				what := "plain access to"
				if a.atomic {
					what = "atomic mutation of"
				}
				pass.Reportf(a.sel.Pos(), "%s %s outside its //samoa:guard %s contract — take %s or move the access into a *Locked helper",
					what, fieldName(f, a), g.guardName, g.guardName)
			}
			continue
		}

		// Unannotated field: mixed atomic and plain access is the race
		// smell — flag the plain sites.
		hasAtomic := false
		for _, a := range as {
			if a.atomic {
				hasAtomic = true
				break
			}
		}
		if !hasAtomic {
			continue
		}
		for _, a := range as {
			if a.atomic || casFlagged[a] {
				continue
			}
			pass.Reportf(a.sel.Pos(), "%s is accessed atomically elsewhere but plainly here — mixed atomic/plain access races; declare the protocol with //samoa:guard or use atomic ops", fieldName(f, a))
		}
	}
}

// fieldName renders a field for diagnostics, preferring the source
// receiver text.
func fieldName(f *types.Var, a *fieldAccess) string {
	if a != nil && a.sel != nil {
		return exprString(nil, a.sel)
	}
	return f.Name()
}

// collectGuards parses //samoa:guard annotations off struct field doc
// and line comments, resolving the named guard to a sibling mutex
// field.
func collectGuards(pass *Pass) []*guardSpec {
	info := pass.TypesInfo()
	var out []*guardSpec
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			// Resolve sibling mutex fields up front.
			mutexes := map[string]*types.Var{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if v, ok := info.Defs[name].(*types.Var); ok && isMutexType(v.Type()) {
						mutexes[name.Name] = v
					}
				}
			}
			for _, fld := range st.Fields.List {
				guardName := guardAnnotation(fld)
				if guardName == "" || len(fld.Names) == 0 {
					continue
				}
				for _, name := range fld.Names {
					v, ok := info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					out = append(out, &guardSpec{
						field:     v,
						guardName: guardName,
						guard:     mutexes[guardName],
						owner:     ts.Name.Name,
						pos:       name.Pos(),
					})
				}
			}
			return true
		})
	}
	return out
}

// guardAnnotation extracts the mutex name from a field's
// //samoa:guard comment (doc comment above or line comment after).
func guardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//samoa:guard")
			if !ok {
				continue
			}
			if cut, _, found := strings.Cut(rest, "—"); found {
				rest = cut
			} else if cut, _, found := strings.Cut(rest, "--"); found {
				rest = cut
			}
			if name := strings.TrimSpace(rest); name != "" {
				return name
			}
		}
	}
	return ""
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// atomicTypeNames are the sync/atomic wrapper types whose methods this
// check classifies.
var atomicMutators = map[string]bool{
	"Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

// collectFieldAccesses walks every function body, recording each use of
// a struct field that is either guard-annotated or accessed via
// sync/atomic anywhere in the package.
func collectFieldAccesses(pass *Pass, guards []*guardSpec) []*fieldAccess {
	m := pass.Model
	info := pass.TypesInfo()
	annotated := map[*types.Var]bool{}
	for _, g := range guards {
		annotated[g.field] = true
	}

	// First pass: find atomically-accessed fields, and remember the
	// selector nodes that *are* the atomic operation so the plain-access
	// pass does not double-count them.
	atomicNodes := map[*ast.SelectorExpr]*fieldAccess{}
	atomicFields := map[*types.Var]bool{}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := m.calleeFunc(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			var target ast.Expr
			var op string
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				// Typed atomics: st.lv.Store(x).
				op = fn.Name()
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					target = sel.X
				}
			} else {
				// Legacy form: atomic.StoreUint64(&st.lv, x).
				op = fn.Name()
				for _, prefix := range []string{"CompareAndSwap", "Store", "Swap", "Add", "Load", "Or", "And"} {
					if strings.HasPrefix(op, prefix) {
						op = prefix
						break
					}
				}
				if len(call.Args) > 0 {
					if un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && un.Op == token.AND {
						target = un.X
					}
				}
			}
			sel, ok := ast.Unparen(target).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok || !v.IsField() {
				return true
			}
			atomicFields[v] = true
			atomicNodes[sel] = &fieldAccess{
				field:  v,
				sel:    sel,
				base:   m.objOf(sel.X),
				atomic: true,
				mutate: atomicMutators[op],
				cas:    op == "CompareAndSwap",
			}
			return true
		})
	}

	tracked := func(v *types.Var) bool { return annotated[v] || atomicFields[v] }

	// Second pass: walk each function body, attributing every tracked
	// selector to its innermost function and loop. Package-level
	// initializers and composite-literal keys never appear as selector
	// uses, so construction-time writes are exempt by shape.
	var out []*fieldAccess
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				collectInFunc(m, info, &FuncNode{Decl: fd}, tracked, atomicNodes, &out)
			}
		}
	}
	return out
}

// collectInFunc records tracked-field accesses in one function body,
// recursing into nested function literals with their own context.
func collectInFunc(m *Model, info *types.Info, fn *FuncNode, tracked func(*types.Var) bool, atomicNodes map[*ast.SelectorExpr]*fieldAccess, out *[]*fieldAccess) {
	var loops []ast.Node
	var stack []ast.Node
	ast.Inspect(fn.BodyOf(), func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loops = loops[:len(loops)-1]
			}
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if fn.Lit != n {
				collectInFunc(m, info, &FuncNode{Lit: n}, tracked, atomicNodes, out)
				return false
			}
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		case *ast.SelectorExpr:
			var loop ast.Node
			if len(loops) > 0 {
				loop = loops[len(loops)-1]
			}
			if a, ok := atomicNodes[n]; ok {
				a.fn, a.loop = fn, loop
				*out = append(*out, a)
				// The receiver inside the atomic op must not also count
				// as a plain access.
				return false
			}
			if v, ok := info.Uses[n.Sel].(*types.Var); ok && v.IsField() && tracked(v) {
				*out = append(*out, &fieldAccess{
					field: v,
					sel:   n,
					base:  m.objOf(n.X),
					fn:    fn,
					loop:  loop,
				})
			}
		}
		stack = append(stack, n)
		return true
	})
}

// holdsGuard reports whether the access happens with its guard held:
// the innermost function follows the *Locked convention, or its body
// (outside nested literals) takes the same guard on a compatible base
// before the access — a Lock later in the body does not cover it.
// Receiver matching is lenient — an unresolvable base on either side is
// accepted, so only provable violations are reported.
func holdsGuard(m *Model, a *fieldAccess, guard *types.Var) bool {
	if a.fn == nil {
		return true // package-level initialization precedes sharing
	}
	if a.fn.Decl != nil && strings.HasSuffix(a.fn.Decl.Name.Name, "Locked") {
		return true
	}
	held := false
	ast.Inspect(a.fn.BodyOf(), func(n ast.Node) bool {
		if held {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if a.fn.Lit != n {
				return false // a closure's lock is its own, not ours
			}
		case *ast.CallExpr:
			fn := m.calleeFunc(n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
				return true
			}
			if name := fn.Name(); name != "Lock" && name != "RLock" {
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if m.objOf(sel.X) != guard {
				return true
			}
			var lockBase types.Object
			if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
				lockBase = m.objOf(inner.X)
			}
			if n.Pos() < a.sel.Pos() && (lockBase == nil || a.base == nil || lockBase == a.base) {
				held = true
			}
		}
		return true
	})
	return held
}
