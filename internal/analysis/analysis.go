package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// An Analyzer is one diagnostic class: a name (used in -checks selection
// and //samoa:ignore directives), a one-line doc string, and a Run
// function reporting findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the analyzers in reporting order. IgnoresAnalyzer runs
// last: it audits the suppressions the other checks honor, so keeping
// it at the end makes the ordering mirror the dependency.
func All() []*Analyzer {
	return []*Analyzer{
		ReadOnlyAnalyzer,
		NestedIsoAnalyzer,
		BlockingAnalyzer,
		LockOrderAnalyzer,
		AtomicsAnalyzer,
		IgnoresAnalyzer,
	}
}

// CheckNames returns every analyzer name, for help text and for the
// ignores audit's known-name set.
func CheckNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// ByName resolves a comma-separated check list ("readonly,blocking")
// against All. An empty or "all" selection returns every analyzer.
func ByName(sel string) ([]*Analyzer, error) {
	if sel == "" || sel == "all" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		a := byName[name]
		if a == nil {
			return nil, fmt.Errorf("unknown check %q (have %s)", name, strings.Join(CheckNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// A Diagnostic is one finding, positioned at the offending source line.
type Diagnostic struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Column  int            `json:"column"`
	Message string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Column, d.Message, d.Check)
}

// A Pass is one analyzer's view of one type-checked package, plus the
// extracted protocol model shared by all checks.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Model    *Model

	diags *[]Diagnostic

	// noSuppress disables //samoa:ignore handling: the ignores audit
	// needs each check's raw findings to decide whether a suppression
	// is still alive, and its own findings must not be silenceable by
	// the very directive under audit.
	noSuppress bool
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// TypesInfo returns the package's type information.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Reportf records a finding at pos unless a //samoa:ignore directive
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if !p.noSuppress && p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Column:  position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// A CheckStat is one analyzer's contribution to a RunChecksStats call:
// how many findings it reported (pre-dedup) and how long it ran.
type CheckStat struct {
	Name     string
	Findings int
	Elapsed  time.Duration
}

// RunChecks extracts the protocol model of pkg once and runs every
// analyzer over it, returning the deduplicated findings in file/line
// order.
func RunChecks(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunChecksStats(pkg, analyzers)
	return diags
}

// RunChecksStats is RunChecks plus a per-check findings/elapsed
// breakdown (in analyzer order), for samoa-vet -stats.
func RunChecksStats(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, []CheckStat) {
	model := ExtractModel(pkg)
	var diags []Diagnostic
	stats := make([]CheckStat, 0, len(analyzers))
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Model: model, diags: &diags}
		before := len(diags)
		start := time.Now()
		a.Run(pass)
		stats = append(stats, CheckStat{
			Name:     a.Name,
			Findings: len(diags) - before,
			Elapsed:  time.Since(start),
		})
	}
	seen := map[string]bool{}
	out := diags[:0]
	for _, d := range diags {
		key := fmt.Sprintf("%s|%s:%d|%s", d.Check, d.File, d.Line, d.Message)
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Check < out[j].Check
	})
	return out, stats
}

// A Directive is one //samoa:ignore comment: the checks it names (or
// "all" when bare), the free-text rationale after its "—"/"--"
// separator, and where it sits. The suppression machinery consumes the
// line/checks pair; the ignores audit consumes the whole record.
type Directive struct {
	Pos       token.Pos
	File      string
	Line      int
	Checks    []string
	Rationale string
}

// ignoreDirectives scans a file's comments for //samoa:ignore lines.
// The directive suppresses findings on its own line and, when it is the
// only thing on its line, on the line below.
func ignoreDirectives(fset *token.FileSet, f *ast.File) []*Directive {
	var out []*Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//samoa:ignore")
			if !ok {
				continue
			}
			// Anything after a "—" or "--" separator is rationale.
			rationale := ""
			if list, rest, cut := strings.Cut(text, "—"); cut {
				text, rationale = list, rest
			} else if list, rest, cut := strings.Cut(text, "--"); cut {
				text, rationale = list, rest
			}
			var checks []string
			for _, name := range strings.Split(strings.TrimSpace(text), ",") {
				if name = strings.TrimSpace(name); name != "" {
					checks = append(checks, name)
				}
			}
			if len(checks) == 0 {
				checks = []string{"all"}
			}
			pos := fset.Position(c.Pos())
			out = append(out, &Directive{
				Pos:       c.Pos(),
				File:      pos.Filename,
				Line:      pos.Line,
				Checks:    checks,
				Rationale: strings.TrimSpace(rationale),
			})
		}
	}
	return out
}

// suppressed reports whether a //samoa:ignore directive on the finding's
// line or the line above covers the given check.
func (p *Package) suppressed(check string, pos token.Position) bool {
	dirs := p.ignores[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range dirs[line] {
			if name == "all" || name == check {
				return true
			}
		}
	}
	return false
}
