package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each golden test runs exactly one analyzer over its testdata package
// and diffs the findings against the // want comments. Disabling a
// check leaves its expectations unmatched, so these tests double as the
// guard that every check stays wired in.

func testdata(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

func TestReadOnly(t *testing.T) {
	analysistest.Run(t, testdata("readonly"), analysis.ReadOnlyAnalyzer)
}

func TestNestedIso(t *testing.T) {
	analysistest.Run(t, testdata("nestediso"), analysis.NestedIsoAnalyzer)
}

func TestBlocking(t *testing.T) {
	analysistest.Run(t, testdata("blocking"), analysis.BlockingAnalyzer)
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, testdata("lockorder"), analysis.LockOrderAnalyzer)
}

func TestAtomics(t *testing.T) {
	analysistest.Run(t, testdata("atomics"), analysis.AtomicsAnalyzer)
}

func TestIgnores(t *testing.T) {
	analysistest.Run(t, testdata("ignores"), analysis.IgnoresAnalyzer)
}

// TestTransportPump runs blocking over a package that implements
// transport.Endpoint: its go-launched loops and AfterFunc callbacks are
// pump scope.
func TestTransportPump(t *testing.T) {
	analysistest.Run(t, testdata("transportpump"), analysis.BlockingAnalyzer)
}

// TestByName covers the -checks selection surface.
func TestByName(t *testing.T) {
	all, err := analysis.ByName("")
	if err != nil || len(all) != 6 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 6, nil", len(all), err)
	}
	if all[len(all)-1].Name != "ignores" {
		t.Fatalf("ignores must run last (it audits the other checks' suppressions); got %q", all[len(all)-1].Name)
	}
	two, err := analysis.ByName("readonly, blocking")
	if err != nil || len(two) != 2 || two[0].Name != "readonly" || two[1].Name != "blocking" {
		t.Fatalf("ByName(\"readonly, blocking\") = %v, err %v", two, err)
	}
	if _, err := analysis.ByName("nope"); err == nil {
		t.Fatal("ByName(\"nope\") succeeded; want error")
	}
}
