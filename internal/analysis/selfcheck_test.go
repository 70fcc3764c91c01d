package analysis_test

import (
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/analysis"
)

// TestRepoCleanAtHead is the self-application gate: samoa-vet over the
// repository's own packages must report nothing. New protocol code that
// trips a check either gets fixed or carries an explicit, rationalized
// //samoa:ignore — silence is not an option.
func TestRepoCleanAtHead(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dirs, err := loader.Expand([]string{"./internal/...", "./examples/...", "./cmd/..."})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(dirs) == 0 {
		t.Fatal("no packages expanded")
	}
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		for _, d := range analysis.RunChecks(pkg, analysis.All()) {
			t.Errorf("%s", d)
		}
	}
}

// TestSeededRegressionCaught deletes one microprotocol from the
// quickstart example's spec and checks the footprint analyzer reports
// the now-unreachable handler — the acceptance probe from the issue.
func TestSeededRegressionCaught(t *testing.T) {
	diags := seedPackage(t, filepath.Join("examples", "quickstart"),
		"core.Access(f.mpP, f.mpR, f.mpS)", "core.Access(f.mpP, f.mpR)", analysis.FootprintAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`reaches handler S\.S but microprotocol S is not in its declared spec \[P R\]`))
}

// TestSeededEmitsRegressionCaught drops one event from a gc handler's
// Emits and checks the footprint analyzer reports the trigger the
// declaration no longer covers: the local check that keeps derived specs
// honest.
func TestSeededEmitsRegressionCaught(t *testing.T) {
	diags := seedPackage(t, filepath.Join("internal", "gc"),
		`rc.mp.AddHandler("recv", rc.recv).Emits(ev.NetSend, ev.FromRComm)`,
		`rc.mp.AddHandler("recv", rc.recv).Emits(ev.NetSend)`, analysis.FootprintAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`handler relcomm\.recv triggers FromRComm, which its Emits does not declare`))
}
