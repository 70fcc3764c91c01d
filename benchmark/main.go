// Command benchmark is the repository's performance gate: six workloads
// over the replicated write path and the local call path, each run untraced
// for the end-to-end numbers and traced for the per-layer cost ledger. See
// README.md beside this file for every name, unit and reason.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Name  string
	Unit  string
	Value float64
}

// metrics keeps the order things were measured in for printing, and is
// written to JSON as {name: {value, unit}}. A value JSON cannot carry (the
// percentile of an empty sample) is written as null.
type metrics []metric

type jsonMetric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

func (ms metrics) MarshalJSON() ([]byte, error) {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		jm := jsonMetric{Unit: m.Unit}
		if v := m.Value; !math.IsNaN(v) && !math.IsInf(v, 0) {
			jm.Value = &v
		}
		out[m.Name] = jm
	}
	return json.Marshal(out)
}

func (ms metrics) get(name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// workloadNames is the order every listing uses.
var workloadNames = []string{
	"kv_write_udp", "kv_write_sim", "kv_paced_udp", "kv_burst_udp", "local_route_pipe", "local_basic_hot",
}

var kvWorkloads = map[string]kvWorkload{
	"kv_write_udp": {"kv_write_udp", "udp", "closed"},
	"kv_write_sim": {"kv_write_sim", "sim", "closed"},
	"kv_paced_udp": {"kv_paced_udp", "udp", "paced"},
	"kv_burst_udp": {"kv_burst_udp", "udp", "burst"},
}

// setupRepeats is how many times an untraced run sets the system up; it
// reports the median as setup_s and measures on the last one.
const setupRepeats = 3

// stamp says what produced a result file.
type stamp struct {
	Commit         string  `json:"commit"`
	Go             string  `json:"go"`
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"GOMAXPROCS"`
	Seed           int64   `json:"seed"`
	WindowS        float64 `json:"window_s"`
	Trace          int     `json:"trace"`
	Oversubscribed bool    `json:"oversubscribed"`
}

// runResult is one workload's run, as written to the out directory.
type runResult struct {
	Stamp     stamp    `json:"stamp"`
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	N         uint64   `json:"n"` // latency samples: acked ops

	// Metrics holds the gated end-to-end metrics of an untraced run, or
	// the per-layer metrics of a traced one, absent layers left out. Info
	// is never gated.
	Metrics metrics `json:"metrics"`
	Info    metrics `json:"info"`
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func opsPerSec(w *window) float64 { return float64(w.acked()) / (float64(w.elapsedNs) / 1e9) }

// e2eMetrics are the four gated numbers, the same names on every workload.
func e2eMetrics(w *window, setupS float64) []metric {
	return []metric{
		{"ops_s", "1/s", opsPerSec(w)},
		{"lat_p50_us", "us", w.typical(0.50) / 1e3},
		{"lat_p95_us", "us", w.typical(0.95) / 1e3},
		{"setup_s", "s", setupS},
	}
}

// infoMetrics are reported and never gated: whole-window percentiles, p99
// and max do not repeat within a tenth on a small host.
func infoMetrics(w *window) []metric {
	ms := []metric{
		{"lat_window_p50_us", "us", w.lat.quantile(0.50) / 1e3},
		{"lat_window_p95_us", "us", w.lat.quantile(0.95) / 1e3},
		{"lat_p99_us", "us", w.lat.quantile(0.99) / 1e3},
		{"lat_max_us", "us", float64(w.lat.max.Load()) / 1e3},
		{"window_elapsed_s", "s", float64(w.elapsedNs) / 1e9},
	}
	if w.genLate.count() > 0 {
		ms = append(ms, metric{"gen_late_p95_us", "us", w.genLate.quantile(0.95) / 1e3})
	}
	return ms
}

// system is a started workload: the replicas or the local stack, warmed up.
type system interface {
	// measure runs one window of the workload's load.
	measure(d time.Duration) measured
	// finish runs the output checks, stops the system and returns what
	// was wrong; an empty result is a correct run.
	finish() []string
}

// measured is one window with everything read at its two ends.
type measured struct {
	w            *window
	procA, procB procSnap
	peak         int64
	free         []metric // from counters the program keeps by itself
}

// start builds the named workload's system, starts it and runs its fixed
// warm-up: the work setup_s times.
func start(name string, tr *tracer, seed int64) (system, error) {
	if wl, ok := kvWorkloads[name]; ok {
		return startKV(wl, tr, seed, runtime.NumCPU())
	}
	return startLocal(name, tr, runtime.NumCPU()), nil
}

// run executes one workload once. Untraced, it sets the system up
// setupRepeats times, reports the median as setup_s and measures on the
// last. Traced, it measures an untraced reference window of half the
// length first, so that the trace's cost in throughput is on record next to
// the numbers it produced.
func run(name string, seed int64, d time.Duration, traced bool) (*runResult, error) {
	res := &runResult{Workload: name}
	var m measured
	if !traced {
		var sys system
		var setups []float64
		for i := 0; i < setupRepeats; i++ {
			if sys != nil {
				res.Problems = append(res.Problems, sys.finish()...)
			}
			t0 := nowNs()
			var err error
			if sys, err = start(name, nil, seed); err != nil {
				return nil, err
			}
			setups = append(setups, float64(nowNs()-t0)/1e9)
		}
		m = sys.measure(d)
		res.Problems = append(res.Problems, sys.finish()...)
		res.Metrics = e2eMetrics(m.w, median(setups))
		res.Info = m.free
	} else {
		ref, err := start(name, nil, seed)
		if err != nil {
			return nil, err
		}
		rm := ref.measure(d / 2)
		res.Problems = append(res.Problems, ref.finish()...)

		tr := newTracer("local", 1)
		if _, kv := kvWorkloads[name]; kv {
			tr = newTracer("gc", kvReplicas)
		}
		sys, err := start(name, tr, seed)
		if err != nil {
			return nil, err
		}
		m = sys.measure(d)
		res.Problems = append(res.Problems, sys.finish()...)
		res.Metrics = append(m.free, tracedMetrics(tr, m.w)...)
		res.Metrics = append(res.Metrics, metric{"trace.overhead_frac", "ratio", 1 - opsPerSec(m.w)/opsPerSec(rm.w)})
		// Traced speeds, for reading the trace beside; never for gating.
		res.Info = e2eMetrics(m.w, math.NaN())[:3]
		if err := writeSpans(name, seed, tr); err != nil {
			return nil, err
		}
	}
	proc := procMetrics(m.procA, m.procB, m.w.elapsedNs, m.w.acked(), m.peak)
	if traced {
		res.Metrics = append(res.Metrics, proc...)
	} else {
		res.Info = append(res.Info, proc...)
	}
	res.Info = append(res.Info, infoMetrics(m.w)...)
	res.Attempted, res.Failed, res.N = m.w.attempted, m.w.failed, m.w.acked()
	if res.N == 0 {
		res.Problems = append(res.Problems, "no operation was acked")
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

func fastFrac(fast, slow uint64) metric {
	return metric{"cc.fast_frac", "ratio", float64(fast) / float64(fast+slow)}
}

var (
	outDir   = flag.String("out", "benchmark/out", "directory for the stamped result files")
	specPath = flag.String("spec", "BENCHMARK.json", "the benchmark's description, for the metric lists and bounds")
)

func main() {
	workload := flag.String("workload", "", "one workload; empty runs all six, untraced then traced")
	seed := flag.Int64("seed", 1, "seed of every key, schedule and op order")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
	agree := flag.Bool("agree", false, "run two full untraced sets and fail if a gated metric differs by more than its bound")
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *trace, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed int64, seconds, trace int, agree bool) error {
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	d := time.Duration(seconds) * time.Second
	if agree {
		return agreement(spec, seed, d)
	}
	if workload == "" {
		for _, tr := range []int{0, 1} {
			for _, name := range workloadNames {
				if _, err := runAndReport(spec, name, seed, d, tr); err != nil {
					return err
				}
			}
		}
		return nil
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q; have %v", workload, workloadNames)
	}
	_, err = runAndReport(spec, workload, seed, d, trace)
	return err
}

// runAndReport runs one workload, prints every metric by name and unit,
// writes the stamped result file, and ends with the one-line JSON result.
func runAndReport(spec *benchSpec, name string, seed int64, d time.Duration, trace int) (*runResult, error) {
	res, err := run(name, seed, d, trace == 1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	nproc := runtime.NumCPU()
	res.Stamp = stamp{
		Commit: commitStamp(), Go: runtime.Version(), NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, WindowS: d.Seconds(), Trace: trace,
		// Closed loops run nproc clients, so only GOMAXPROCS can oversubscribe.
		Oversubscribed: runtime.GOMAXPROCS(0) > nproc,
	}
	fmt.Printf("== %s  seed=%d window=%gs trace=%d  attempted=%d failed=%d n=%d correct=%v\n",
		name, seed, d.Seconds(), trace, res.Attempted, res.Failed, res.N, res.Correct)
	if res.Stamp.Oversubscribed {
		fmt.Println("   OVERSUBSCRIBED: GOMAXPROCS exceeds the processors; do not gate on this run")
	}
	for _, p := range res.Problems {
		fmt.Println("   WRONG:", p)
	}
	for _, m := range res.Metrics {
		fmt.Printf("   %-30s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range res.Info {
		fmt.Printf("   %-30s %14.4f %s  (info)\n", m.Name, m.Value, m.Unit)
	}
	if trace == 1 {
		for _, def := range spec.PerLayer {
			if _, ok := res.Metrics.get(def.Name); !ok {
				fmt.Printf("   %-30s %14s     (layer not on this workload's path)\n", def.Name, "absent")
			}
		}
	}

	if err := writeJSON(fmt.Sprintf("%s-trace%d-seed%d.json", name, trace, seed), res); err != nil {
		return nil, err
	}
	line, err := resultLine(spec, res, trace)
	if err != nil {
		return nil, err
	}
	fmt.Println(line)
	return res, nil
}

// absentValue stands in the result line for a per-layer metric whose layer
// is not on the workload's path: the driver wants every name on every
// workload, and a layer that did nothing must not read as one that cost
// nothing. The result files leave such metrics out instead.
const absentValue = -1

// resultLine is the driver's contract: exactly the end-to-end metrics of
// the spec when untraced, exactly its per-layer metrics when traced.
func resultLine(spec *benchSpec, res *runResult, trace int) (string, error) {
	defs := spec.EndToEnd
	if trace == 1 {
		defs = spec.PerLayer
	}
	var out metrics
	for _, def := range defs {
		m, ok := res.Metrics.get(def.Name)
		switch {
		case ok && m.Unit != def.Unit:
			return "", fmt.Errorf("%s is measured in %s but %s says %s", def.Name, m.Unit, *specPath, def.Unit)
		case ok && !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0):
			out = append(out, m)
		case trace == 1:
			out = append(out, metric{def.Name, def.Unit, absentValue})
		default:
			return "", fmt.Errorf("%s has no value on %s", def.Name, res.Workload)
		}
	}
	for _, m := range res.Metrics {
		if _, ok := out.get(m.Name); !ok {
			return "", fmt.Errorf("%s is measured but not listed in %s", m.Name, *specPath)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted uint64  `json:"attempted"`
		Failed    uint64  `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
	return string(b), err
}

// commitStamp is handed in by run.sh, which can ask git; the driver's
// checkout is not a repository, so "unknown" is a normal answer.
func commitStamp() string {
	if c := os.Getenv("SAMOA_BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func writeJSON(name string, v any) error {
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(*outDir, name), append(b, '\n'), 0o644)
}

func writeSpans(workload string, seed int64, tr *tracer) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return writeJSON(fmt.Sprintf("%s-seed%d-spans.json", workload, seed), tr.raw)
}

// benchSpec is BENCHMARK.json, the one place metric names, units and
// bounds are written down.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// agreement runs two full untraced sets back to back and fails if any
// gated metric of any workload moved by more than its bound: the check that
// the gate can tell a change from noise on this host.
func agreement(spec *benchSpec, seed int64, d time.Duration) error {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("oversubscribed (GOMAXPROCS %d > %d processors): refusing to gate", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	var sets [2]map[string]*runResult
	for i := range sets {
		sets[i] = make(map[string]*runResult)
		for _, name := range workloadNames {
			res, err := runAndReport(spec, name, seed, d, 0)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: incorrect run", name)
			}
			sets[i][name] = res
		}
	}
	fmt.Printf("\n%-18s %-12s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "spread", "bound")
	failed := 0
	for _, name := range workloadNames {
		for _, def := range spec.EndToEnd {
			ma, _ := sets[0][name].Metrics.get(def.Name)
			mb, _ := sets[1][name].Metrics.get(def.Name)
			a, b := ma.Value, mb.Value
			spread := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if spread > def.Bound {
				verdict = "  EXCEEDS"
				failed++
			}
			fmt.Printf("%-18s %-12s %14.4f %14.4f %7.2f%% %5.0f%%%s\n", name, def.Name, a, b, 100*spread, 100*def.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric/workload pairs differ by more than their bound", failed)
	}
	return nil
}
