package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// auditedPackages are the packages whose exported surface must earn its
// place: each exported top-level function, type and method is named by
// a program outside its package, or stays only with a reason below.
var auditedPackages = []string{"internal/core", "internal/cc", "internal/gc"}

// callerRoots are the trees searched for uses. Test files do not count,
// and neither do .bench_build (a copy of the repository the benchmark
// builds) or testdata (the analyzers' fixtures).
var callerRoots = []string{"cmd", "examples", "internal", "benchmark"}

// exportAllowlist names the exported identifiers that no program outside
// their package uses, keyed "pkg.Name" or "pkg.Recv.Method", each with
// the one-line reason it stays.
var exportAllowlist = map[string]string{
	"core.AmbiguousError": "typed error: callers match it with errors.As",
	"core.DeriveError":    "typed error: callers match it with errors.As",
	"core.EmitsError":     "typed error: callers match it with errors.As",
	"core.LifecycleError": "typed error: callers match it with errors.As",
	"core.UnboundError":   "typed error: callers match it with errors.As",

	"core.DeadlineError.Unwrap": "errors.Is and errors.As call it to reach the context error a deadline wraps",
	"core.PanicError.Unwrap":    "errors.Is and errors.As call it to reach the panic value when it is an error",

	"core.Stack.IsolatedCtx":  "with CloseContext, the only caller-side cancellation and drain bound",
	"core.Stack.CloseContext": "with IsolatedCtx, the only caller-side cancellation and drain bound",
	"core.Context.Ctx":        "a handler's view of the IsolatedCtx deadline it runs under",

	"core.Context.AsyncTriggerAll": "async construct; kept or deleted by ROADMAP item 10(c)",
	"core.Context.Fork":            "async construct; kept or deleted by ROADMAP item 10(c)",
	"core.Stack.IsolatedAsync":     "async construct; kept or deleted by ROADMAP item 10(c)",

	"core.Computation":         "the paper's §2 computation: the type Context.Computation returns",
	"core.Context.Computation": "a handler's access to its own computation's spec, epoch and ID",
	"core.HandlerOption":       "the option type AddHandler takes (ReadOnly returns one)",
	"core.ReplacedMP":          "the element type of EpochChange.Replaced, which reconfiguring controllers read",
	"core.Epoch.Rebind":        "the paper's §7 dynamic rebinding: the edit Stack.Reconfigure applies live",

	"cc.None":           "the type NewNone returns; callers hold it as a core.Controller",
	"cc.VCABound":       "the type NewVCABound returns; callers hold it as a core.Controller",
	"cc.VCARoute":       "the type NewVCARoute returns; callers hold it as a core.Controller",
	"cc.VCARW":          "the type NewVCARW returns; callers hold it as a core.Controller",
	"cc.RefVCABasic":    "the differential reference VCABasic is checked against",
	"cc.NewRefVCABasic": "the differential reference VCABasic is checked against",

	"gc.App":          "a §3 microprotocol that Site composes, named as the paper and DESIGN.md name it",
	"gc.Consensus":    "a §3 microprotocol that Site composes, named as the paper and DESIGN.md name it",
	"gc.FD":           "a §3 microprotocol that Site composes, named as the paper and DESIGN.md name it",
	"gc.Membership":   "a §3 microprotocol that Site composes, named as the paper and DESIGN.md name it",
	"gc.NetOut":       "a §3 microprotocol that Site composes, named as the paper and DESIGN.md name it",
	"gc.RelCast":      "a §3 microprotocol that Site composes, named as the paper and DESIGN.md name it",
	"gc.RelComm":      "a §3 microprotocol that Site composes, named as the paper and DESIGN.md name it",
	"gc.View.Members": "an OnViewChange callback reads the members of the view it is given",
}

// exportedDecls returns the exported top-level functions, types and
// methods declared in dir's non-test files, keyed as in exportAllowlist
// and mapped to the name a caller would spell.
func exportedDecls(t *testing.T, dir string) map[string]string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]string{}
	for name, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					key := name + "." + d.Name.Name
					if d.Recv != nil {
						key = name + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					decls[key] = d.Name.Name
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							decls[name+"."+ts.Name.Name] = ts.Name.Name
						}
					}
				}
			}
		}
	}
	return decls
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// identsOutside returns every identifier named in the non-test Go files
// under callerRoots, except those in the directory skip.
func identsOutside(t *testing.T, skip string) map[string]bool {
	t.Helper()
	idents := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range callerRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == ".bench_build" || d.Name() == "testdata" || path == skip {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					idents[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return idents
}

// TestExportsHaveCallers is the exported-identifier audit: an exported
// function, type or method of core, cc or gc whose name no non-test
// program outside its package spells fails the test, unless
// exportAllowlist gives the reason it stays. Matching is by name, so it
// finds surface nothing uses, not every dead path. An allowlist entry
// that names nothing, or whose identifier has gained a caller, fails
// too.
func TestExportsHaveCallers(t *testing.T) {
	declared := map[string]bool{}
	for _, dir := range auditedPackages {
		idents := identsOutside(t, dir)
		decls := exportedDecls(t, dir)
		keys := make([]string, 0, len(decls))
		for key := range decls {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			_, listed := exportAllowlist[key]
			declared[key] = true
			switch used := idents[decls[key]]; {
			case !used && !listed:
				t.Errorf("%s (%s) has no non-test caller outside its package: delete it, or add it to exportAllowlist with the reason it stays", key, dir)
			case used && listed:
				t.Errorf("%s has a caller now: remove it from exportAllowlist", key)
			}
		}
	}
	for key := range exportAllowlist {
		if !declared[key] {
			t.Errorf("exportAllowlist names %s, which is not declared", key)
		}
	}
}
