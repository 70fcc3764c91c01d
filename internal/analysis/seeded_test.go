package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Every analyzer earns its place by catching one defect planted in the
// repository's own gc, cc or core code: each test below copies a real
// package with one mutation applied and expects the analyzer to report
// exactly that mutation. An analyzer whose plant no longer reports is
// dead weight, and the clean original is TestRepoCleanAtHead's concern.

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

var (
	gcDir = filepath.Join("internal", "gc")
	ccDir = filepath.Join("internal", "cc")
)

// TestSeededReadOnlyCaught declares RelCast's recv handler ReadOnly: its
// body writes the relay state, which VCARW would then share between
// concurrent readers.
func TestSeededReadOnlyCaught(t *testing.T) {
	diags := seedPackage(t, gcDir,
		`rb.mp.AddHandler("recv", rb.recv)`,
		`rb.mp.AddHandler("recv", rb.recv, core.ReadOnly())`,
		analysis.ReadOnlyAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`handler relcast\.recv is declared ReadOnly but .* captured state`))
}

// TestSeededNestedIsoCaught makes RelCast's recv handler start a
// computation synchronously, which deadlocks once the specs overlap.
func TestSeededNestedIsoCaught(t *testing.T) {
	diags := seedPackage(t, gcDir,
		"func (rb *RelCast) recv(ctx *core.Context, msg core.Message) error {\n",
		"func (rb *RelCast) recv(ctx *core.Context, msg core.Message) error {\n\t_ = ctx.Stack().External(nil, rb.ev.Bcast, nil)\n",
		analysis.NestedIsoAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`synchronous Stack\.External inside handler relcast\.recv deadlocks`))
}

// TestSeededBlockingCaught makes RelComm's retransmission tick wait out
// half an RTO inside its computation: a sleep the schedule explorer
// cannot see.
func TestSeededBlockingCaught(t *testing.T) {
	diags := seedPackage(t, gcDir,
		"func (rc *RelComm) retransmit(ctx *core.Context, _ core.Message) error {\n",
		"func (rc *RelComm) retransmit(ctx *core.Context, _ core.Message) error {\n\ttime.Sleep(rc.rto / 2)\n",
		analysis.BlockingAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`time\.Sleep inside handler relcomm\.retransmit stalls real time`))
}

// TestSeededLockOrderCaught turns the release at the end of VCARoute.Exit
// into a second acquisition: the next Exit or Request of the computation
// waits forever on its own token.
func TestSeededLockOrderCaught(t *testing.T) {
	diags := seedPackage(t, ccDir,
		"\t\twoke = tok.scanReleaseLocked()\n\t}\n\ttok.mu.Unlock()",
		"\t\twoke = tok.scanReleaseLocked()\n\t}\n\ttok.mu.Lock()",
		analysis.LockOrderAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`acquires tok\.mu twice on the same path — guaranteed self-deadlock`))
}

// TestSeededAtomicsCaught drops the token lock from VCABound.Request:
// the visit counts are declared //samoa:guard mu, and concurrent threads
// of one computation race on them. A second plant stores the local
// version at the top of mpState.waitAtLeast, before the function takes
// st.mu: a Lock later in the body must not cover it.
func TestSeededAtomicsCaught(t *testing.T) {
	diags := seedPackage(t, ccDir,
		"\ttok.mu.Lock()\n\tdefer tok.mu.Unlock()\n\tif tok.requested[i] >= tok.fp.bounds[i] {",
		"\tif tok.requested[i] >= tok.fp.bounds[i] {",
		analysis.AtomicsAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`plain access to tok\.requested outside its //samoa:guard mu contract`))

	diags = seedPackage(t, ccDir,
		"min uint64) error {\n\tif st.lv.Load() >= min {",
		"min uint64) error {\n\tst.lv.Store(min)\n\tif st.lv.Load() >= min {",
		analysis.AtomicsAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`atomic mutation of st\.lv outside its //samoa:guard mu contract`))
}

// TestSeededIgnoresCaught widens WaitDie's backoff suppression to a check
// that reports nothing there: the staleness audit must reject it.
func TestSeededIgnoresCaught(t *testing.T) {
	diags := seedPackage(t, ccDir,
		"time.Sleep(backoff) //samoa:ignore blocking — ",
		"time.Sleep(backoff) //samoa:ignore blocking,lockorder — ",
		analysis.IgnoresAnalyzer)
	expectOnly(t, diags, regexp.MustCompile(`stale //samoa:ignore: lockorder no longer reports anything`))
}
