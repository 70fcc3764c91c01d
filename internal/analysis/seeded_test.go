package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// seedPackage copies the non-test Go files of the module-relative
// package dir with one mutation applied and runs the given analyzer over
// the copy, returning its findings. The copy lives under the module root
// so imports resolve.
func seedPackage(t *testing.T, dir, orig, mutated string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(loader.ModuleRoot, dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.MkdirTemp("testdata", "seeded-")
	if err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	t.Cleanup(func() { os.RemoveAll(out) })
	seeded := false
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		code := string(src)
		if !seeded && strings.Contains(code, orig) {
			code, seeded = strings.Replace(code, orig, mutated, 1), true
		}
		if err := os.WriteFile(filepath.Join(out, filepath.Base(f)), []byte(code), 0o644); err != nil {
			t.Fatalf("write seeded copy: %v", err)
		}
	}
	if !seeded {
		t.Fatalf("%s no longer contains %q; update this test's seed", dir, orig)
	}
	pkg, err := loader.Load(out)
	if err != nil {
		t.Fatalf("load seeded copy: %v", err)
	}
	return analysis.RunChecks(pkg, []*analysis.Analyzer{a})
}

// seedCCMirror is seedPackage over the ccmirror fixture.
func seedCCMirror(t *testing.T, orig, mutated string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	return seedPackage(t, filepath.Join("internal", "analysis", "testdata", "src", "ccmirror"), orig, mutated, a)
}

// expectOnly asserts every diagnostic matches want and at least one was
// reported.
func expectOnly(t *testing.T, diags []analysis.Diagnostic, want *regexp.Regexp) {
	t.Helper()
	found := false
	for _, d := range diags {
		if want.MatchString(d.Message) {
			found = true
		} else {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !found {
		t.Errorf("seeded regression missed; got %d diagnostics", len(diags))
	}
}

// TestSeededLockOrderCaught swaps admit's canonical spawnMu→mu nesting:
// the inversion against publish's order must be reported.
func TestSeededLockOrderCaught(t *testing.T) {
	diags := seedCCMirror(t,
		"\tst.spawnMu.Lock()\n\tst.mu.Lock()",
		"\tst.mu.Lock()\n\tst.spawnMu.Lock()",
		analysis.LockOrderAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`acquires .* while holding .*opposite order — lock-order inversion`))
}

// TestSeededAtomicsCaught drops the //samoa:guard on applied: the plain
// write under mu plus the atomic read elsewhere becomes the undeclared
// mixed-access smell.
func TestSeededAtomicsCaught(t *testing.T) {
	diags := seedCCMirror(t,
		"\t//samoa:guard mu — written plainly under mu; read via atomic.LoadUint64\n\tapplied uint64",
		"\tapplied uint64",
		analysis.AtomicsAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`st\.applied is accessed atomically elsewhere but plainly here`))
}

// TestSeededIgnoresCaught plants a suppression over code that reports
// nothing: the staleness audit must reject it.
func TestSeededIgnoresCaught(t *testing.T) {
	diags := seedCCMirror(t,
		"// stats reads the published values lock-free.",
		"//samoa:ignore lockorder — seeded: nothing here for lockorder to report",
		analysis.IgnoresAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`stale //samoa:ignore: lockorder no longer reports anything`))
}
