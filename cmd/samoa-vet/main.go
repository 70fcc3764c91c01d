// Command samoa-vet statically checks microprotocol isolation and
// concurrency contracts (see internal/analysis). It loads the named
// package patterns, runs the eight analyzers, and exits 1 if anything
// was found:
//
//	samoa-vet ./internal/... ./examples/... ./cmd/...
//	samoa-vet -checks lockorder,atomics ./internal/cc
//	samoa-vet -json ./...     # machine-readable findings for CI
//	samoa-vet -github ./...   # GitHub Actions error annotations
//	samoa-vet -stats ./...    # per-package model + per-check findings/elapsed
//
// Deliberate findings are silenced in source with //samoa:ignore <check>
// — rationale, on the flagged line or the line above it; the ignores
// check audits those directives (rationale present, check name known,
// suppression still live), so suppressions cannot rot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
)

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array")
		githubOut = flag.Bool("github", false, "emit findings as GitHub Actions annotations")
		checks    = flag.String("checks", "all", "comma-separated checks to run ("+strings.Join(analysis.CheckNames(), ",")+")")
		list      = flag.Bool("list", false, "list the available checks and exit")
		stats     = flag.Bool("stats", false, "print per-package model and per-check findings/elapsed statistics to stderr")
	)
	flag.Parse()

	analyzers, err := analysis.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "samoa-vet:", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "samoa-vet:", err)
		os.Exit(2)
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "samoa-vet:", err)
		os.Exit(2)
	}

	var diags []analysis.Diagnostic
	perCheck := make(map[string]analysis.CheckStat)
	loadFailed := false
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "samoa-vet:", err)
			loadFailed = true
			continue
		}
		pkgDiags, pkgStats := analysis.RunChecksStats(pkg, analyzers)
		diags = append(diags, pkgDiags...)
		if *stats {
			for _, s := range pkgStats {
				agg := perCheck[s.Name]
				agg.Name = s.Name
				agg.Findings += s.Findings
				agg.Elapsed += s.Elapsed
				perCheck[s.Name] = agg
			}
			model := analysis.ExtractModel(pkg)
			resolvedSpecs := 0
			for _, s := range model.IsoSites {
				if s.Spec != nil && s.Spec.SpecComplete {
					resolvedSpecs++
				}
			}
			fmt.Fprintf(os.Stderr, "samoa-vet: %-40s handlers=%-3d bindings=%-3d isosites=%-3d resolved-specs=%-3d emits-checked=%d\n",
				pkg.ImportPath, len(model.Handlers), len(model.Bindings), len(model.IsoSites), resolvedSpecs, len(model.EmitsChecked()))
		}
	}
	if *stats {
		// Aggregate per-check table, in the analyzers' run order.
		for _, a := range analyzers {
			s, ok := perCheck[a.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(os.Stderr, "samoa-vet: check %-12s findings=%-4d elapsed=%s\n",
				s.Name, s.Findings, s.Elapsed.Round(time.Microsecond))
		}
	}

	// Report paths relative to the module root so output is stable
	// across checkouts.
	for i := range diags {
		if rel, err := filepath.Rel(loader.ModuleRoot, diags[i].File); err == nil {
			diags[i].File = rel
		}
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "samoa-vet:", err)
			os.Exit(2)
		}
	case *githubOut:
		for _, d := range diags {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=samoa-vet/%s::%s\n",
				d.File, d.Line, d.Column, d.Check, d.Message)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	switch {
	case loadFailed:
		os.Exit(2)
	case len(diags) > 0:
		os.Exit(1)
	}
}
