// Package analysistest runs samoa-vet analyzers over golden testdata
// packages, comparing findings against // want "regexp" expectation
// comments — the same discipline go/analysis repositories use, built
// from scratch on the stdlib.
//
// An expectation comment attaches to its own source line:
//
//	p.stack.External(spec, ev, nil) // want `synchronous Stack\.External`
//
// A want-below comment attaches to the line below it — for diagnostics
// positioned on a comment-only line (the ignores audit reports at the
// //samoa:ignore directive itself, which cannot share its line with a
// want, and whose covered window is the line under it):
//
//	// want-below `has no rationale`
//	//samoa:ignore blocking
//	time.Sleep(time.Millisecond)
//
// Several backquoted or quoted patterns may follow one want. Run fails
// the test if any diagnostic lacks a matching expectation on its line
// (unexpected finding) or any expectation goes unmatched (missed
// finding — also exactly what happens when a check is disabled).
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

var (
	loaderMu sync.Mutex
	loaders  = map[string]*analysis.Loader{}
)

// sharedLoader caches one Loader per module root so testdata packages
// and their dependencies (core, cc, stdlib) type-check once per test
// binary, not once per test.
func sharedLoader(dir string) (*analysis.Loader, error) {
	loaderMu.Lock()
	defer loaderMu.Unlock()
	probe, err := analysis.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	if l, ok := loaders[probe.ModuleRoot]; ok {
		return l, nil
	}
	loaders[probe.ModuleRoot] = probe
	return probe, nil
}

// expectation is one want pattern, anchored to a file line.
type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Run loads the package in dir, runs the analyzers, and diffs the
// findings against the package's // want comments.
func Run(t testing.TB, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	loader, err := sharedLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}

	wants := map[string]map[int][]*expectation{} // file → line → patterns
	for _, f := range pkg.Files {
		if err := collectWants(pkg.Fset, f, wants); err != nil {
			t.Fatalf("%v", err)
		}
	}

	diags := analysis.RunChecks(pkg, analyzers)
	for _, d := range diags {
		exps := wants[d.File][d.Line]
		found := false
		for _, e := range exps {
			if e.rx.MatchString(d.Message) {
				e.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s:%d: %s [%s]", d.File, d.Line, d.Message, d.Check)
		}
	}
	for file, lines := range wants {
		for line, exps := range lines {
			for _, e := range exps {
				if !e.matched {
					t.Errorf("no diagnostic at %s:%d matching %q", file, line, e.rx)
				}
			}
		}
	}
}

// collectWants parses the // want comments of one file.
func collectWants(fset *token.FileSet, f *ast.File, wants map[string]map[int][]*expectation) error {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			offset := 0
			text, ok := strings.CutPrefix(c.Text, "// want ")
			if !ok {
				if text, ok = strings.CutPrefix(c.Text, "// want-below "); !ok {
					continue
				}
				offset = 1
			}
			pos := fset.Position(c.Pos())
			pos.Line += offset
			matches := wantRe.FindAllStringSubmatch(text, -1)
			if len(matches) == 0 {
				return fmt.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
			}
			for _, mSub := range matches {
				pat := mSub[1]
				if pat == "" && mSub[2] != "" {
					unq, err := strconv.Unquote(`"` + mSub[2] + `"`)
					if err != nil {
						return fmt.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, mSub[2], err)
					}
					pat = unq
				}
				rx, err := regexp.Compile(pat)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
				}
				if wants[pos.Filename] == nil {
					wants[pos.Filename] = map[int][]*expectation{}
				}
				wants[pos.Filename][pos.Line] = append(wants[pos.Filename][pos.Line], &expectation{rx: rx})
			}
		}
	}
	return nil
}
