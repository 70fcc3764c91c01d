// Command samoa-bench runs the repository's evaluation — experiments
// E1–E13 of DESIGN.md — and prints the tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	samoa-bench               # run everything at full parameters
//	samoa-bench -quick        # reduced parameters (CI-sized)
//	samoa-bench -exp e1,e5    # run a subset
//	samoa-bench -json         # also write BENCH_E<k>.json per experiment
//	samoa-bench -cpu 1,2,4,8  # the GOMAXPROCS sweep of e11
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "reduced parameters")
	exps := flag.String("exp", "all", "comma-separated experiment ids (e1..e13) or 'all'")
	jsonOut := flag.Bool("json", false, "write machine-readable results to BENCH_E<k>.json (controller → metric → value)")
	cpus := flag.String("cpu", "1,2,4,8", "comma-separated GOMAXPROCS values for the e11 contention sweep")
	flag.Parse()

	cpuList, err := parseCPUs(*cpus)
	if err != nil {
		fmt.Fprintf(os.Stderr, "samoa-bench: -cpu: %v\n", err)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(strings.ToLower(*exps), ",") {
		want[strings.TrimSpace(e)] = true
	}
	sel := func(id string) bool { return want["all"] || want[id] }

	fmt.Printf("GO-SAMOA evaluation — GOMAXPROCS=%d, quick=%v\n\n", runtime.GOMAXPROCS(0), *quick)

	type exp struct {
		id  string
		run func() *bench.Table
	}
	full := []exp{
		{"e1", func() *bench.Table { return bench.E1Admissibility(pick(*quick, 100, 1000), 80*time.Microsecond) }},
		{"e2", func() *bench.Table { return bench.E2Overhead(pick(*quick, 2000, 20000), 16) }},
		{"e3", func() *bench.Table {
			return bench.E3Scalability([]int{1, 2, 4, 8}, pick(*quick, 200, 1000), 200*time.Microsecond)
		}},
		{"e4", func() *bench.Table {
			return bench.E4ABcast(pickSlice(*quick, []int{3}, []int{3, 5, 7}), pick(*quick, 30, 120))
		}},
		{"e5", func() *bench.Table { return bench.E5Ablation(pick(*quick, 24, 48), 2*time.Millisecond) }},
		{"e6", func() *bench.Table { return bench.E6ViewRace(pick(*quick, 2, 10)) }},
		{"e7", func() *bench.Table {
			return bench.E7Extensions(8, pick(*quick, 40, 150), []float64{0.5, 0.9, 1.0}, 200*time.Microsecond)
		}},
		{"e8", func() *bench.Table {
			return bench.E8Rollback(8, pick(*quick, 30, 100), 100*time.Microsecond)
		}},
		{"e9", func() *bench.Table {
			return bench.E9Transport(pick(*quick, 50, 200), pick(*quick, 2000, 30000), 256, pick(*quick, 3, 5))
		}},
		{"e10", func() *bench.Table {
			return bench.E10SchedOverhead(pick(*quick, 200, 2000), 16)
		}},
		{"e11", func() *bench.Table {
			return bench.E11Contention(cpuList, 8, pick(*quick, 2000, 20000))
		}},
		{"e12", func() *bench.Table {
			return bench.E12KVOverUDP(6, pick(*quick, 10, 40))
		}},
		{"e13", func() *bench.Table {
			return bench.E13SwapLatency(8, pick(*quick, 10, 50), 100*time.Microsecond)
		}},
	}
	ran := 0
	for _, e := range full {
		if !sel(e.id) {
			continue
		}
		start := time.Now()
		tab := e.run()
		tab.Note("wall time: %v", time.Since(start).Round(time.Millisecond))
		tab.Fprint(os.Stdout)
		if *jsonOut {
			if err := writeJSON(tab); err != nil {
				fmt.Fprintf(os.Stderr, "samoa-bench: %v\n", err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments selected; use -exp e1..e13 or all")
		os.Exit(2)
	}
}

// parseCPUs parses the -cpu flag: a comma-separated list of positive
// GOMAXPROCS values.
func parseCPUs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad GOMAXPROCS value %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// writeJSON records the experiment's table as BENCH_<ID>.json (e.g.
// BENCH_E2.json), seeding the repo's machine-readable perf trajectory.
func writeJSON(tab *bench.Table) error {
	doc := map[string]any{
		"id":      tab.ID,
		"title":   tab.Title,
		"results": tab.JSON(),
		"notes":   tab.Notes,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("BENCH_%s.json", strings.ToUpper(tab.ID))
	return os.WriteFile(name, append(data, '\n'), 0o644)
}

func pick(quick bool, q, f int) int {
	if quick {
		return q
	}
	return f
}

func pickSlice(quick bool, q, f []int) []int {
	if quick {
		return q
	}
	return f
}
