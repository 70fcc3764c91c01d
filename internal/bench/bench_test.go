package bench_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// The experiment smoke tests run every table with reduced parameters and
// assert the paper's qualitative shapes, so a regression in any runner or
// in the algorithms themselves fails CI, not just the evaluation run.

func cell(t *testing.T, tab *bench.Table, rowKey string, col int) string {
	t.Helper()
	for _, row := range tab.Rows {
		if row[0] == rowKey || (len(row) > 1 && row[0]+"/"+row[1] == rowKey) {
			return row[col]
		}
	}
	t.Fatalf("row %q not found in %s", rowKey, tab.ID)
	return ""
}

func atoiCell(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.Fields(s)[0])
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return n
}

func TestE1Shapes(t *testing.T) {
	tab := bench.E1Admissibility(60, 80*time.Microsecond)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		name, serial, conc, viol := row[0], atoiCell(t, row[1]), atoiCell(t, row[2]), atoiCell(t, row[3])
		switch name {
		case "serial":
			if conc != 0 || viol != 0 {
				t.Errorf("serial admitted non-serial runs: %v", row)
			}
		case "vca-basic", "vca-bound", "vca-route":
			if viol != 0 {
				t.Errorf("%s admitted violations: %v", name, row)
			}
			if conc == 0 {
				t.Errorf("%s admitted no concurrency at all: %v", name, row)
			}
		case "none":
			if viol == 0 {
				t.Errorf("none admitted no violations in %d trials (suspicious): %v", serial+conc+viol, row)
			}
		}
	}
}

func TestE2Runs(t *testing.T) {
	tab := bench.E2Overhead(500, 16)
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestE8Shapes(t *testing.T) {
	tab := bench.E8Rollback(4, 15, 100*time.Microsecond)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Low contention: wait-die must beat serial (disjoint overlap).
	wd := float64(atoiCell(t, cell(t, tab, "wait-die", 1)))
	serial := float64(atoiCell(t, cell(t, tab, "serial", 1)))
	if wd < serial {
		t.Errorf("wait-die low-contention %.0f < serial %.0f", wd, serial)
	}
}

func TestE3Shapes(t *testing.T) {
	tab := bench.E3Scalability([]int{1, 4}, 200, 200*time.Microsecond)
	// Disjoint: vca-basic must scale better than serial.
	var serialSpeedup, basicSpeedup float64
	for _, row := range tab.Rows {
		if row[0] != "disjoint" {
			continue
		}
		sp, err := strconv.ParseFloat(strings.TrimSuffix(row[len(row)-1], "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		switch row[1] {
		case "serial":
			serialSpeedup = sp
		case "vca-basic":
			basicSpeedup = sp
		}
	}
	if basicSpeedup < serialSpeedup {
		t.Errorf("disjoint workload: vca-basic speedup %.1f < serial %.1f", basicSpeedup, serialSpeedup)
	}
}

func TestE4Runs(t *testing.T) {
	tab := bench.E4ABcast([]int{3}, 12)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d: %v", len(tab.Rows), tab.Rows)
	}
}

// TestE5Shapes checks the spec-precision ablation by its structure, not
// its timing: early release — exact bounds, precise routes — must let
// stages of different computations run at the same time, and every
// variant whose spec defeats early release must run them strictly one
// computation at a time.
func TestE5Shapes(t *testing.T) {
	tab := bench.E5Ablation(16, time.Millisecond)
	for _, key := range []string{"vca-bound exact (1)", "vca-route chain"} {
		if n := atoiCell(t, cell(t, tab, key, 3)); n < 2 {
			t.Errorf("%s did not pipeline: at most %d computation had a stage open at once", key, n)
		}
	}
	for _, key := range []string{"vca-basic", "vca-bound loose (8x)", "vca-route back-edge"} {
		if n := atoiCell(t, cell(t, tab, key, 3)); n != 1 {
			t.Errorf("%s pipelined although its spec defeats early release: %d computations had a stage open at once", key, n)
		}
	}
}

func TestE6Shapes(t *testing.T) {
	tab := bench.E6ViewRace(1)
	for _, row := range tab.Rows {
		lost := strings.Split(row[1], "/")[0]
		if row[0] == "none" && lost == "0" {
			t.Errorf("none did not lose the message: %v", row)
		}
		if row[0] != "none" && lost != "0" {
			t.Errorf("%s lost messages: %v", row[0], row)
		}
	}
}

func TestE7Shapes(t *testing.T) {
	tab := bench.E7Extensions(8, 30, []float64{1.0}, 200*time.Microsecond)
	rw := float64(atoiCell(t, cell(t, tab, "vca-rw", 1)))
	basic := float64(atoiCell(t, cell(t, tab, "vca-basic", 1)))
	if rw < 2*basic {
		t.Errorf("vca-rw on 100%% reads should far exceed vca-basic: rw=%.0f basic=%.0f", rw, basic)
	}
}

func TestE9Shapes(t *testing.T) {
	tab := bench.E9Transport(30, 30, 128, 2)
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		name, delivered := row[0], row[1]
		switch name {
		case "rel+ord+sum, lossy 20%", "rel+ord+sum, corrupt 20%":
			if delivered != "30/30" {
				t.Errorf("%s delivered %s, want everything (repair machinery)", name, delivered)
			}
			if atoiCell(t, row[4]) == 0 && name == "rel+ord+sum, lossy 20%" {
				t.Errorf("%s: no retransmissions on a lossy link", name)
			}
		case "raw datagram, clean":
			if delivered != "30/30" {
				t.Errorf("clean raw link lost messages: %s", delivered)
			}
		}
	}
}

func TestTablePrinting(t *testing.T) {
	tab := &bench.Table{ID: "T", Title: "test", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.Note("n=%d", 1)
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"T — test", "a", "1", "note: n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestVariantRegistry(t *testing.T) {
	if len(bench.Variants()) != 7 {
		t.Fatalf("variants = %d", len(bench.Variants()))
	}
	if len(bench.Isolating()) != 6 {
		t.Fatal("isolating set wrong")
	}
	if len(bench.PaperVariants()) != 5 {
		t.Fatal("paper set wrong")
	}
	if _, ok := bench.VariantByName("vca-basic"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := bench.VariantByName("zz"); ok {
		t.Fatal("phantom variant")
	}
}
