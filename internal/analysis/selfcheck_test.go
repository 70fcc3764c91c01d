package analysis_test

import (
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
