// Command perfbench is the repository's benchmark. It runs one named
// workload with a seed, checks the program's outputs, and prints every
// end-to-end metric by name with its unit; with --trace 1 it prints the
// per-layer metrics instead. README.md defines every workload and metric.
//
//	bash perfbench/run.sh --workload cg-grid --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 36, "failed": 0, "metrics": {"wall_s": {"value": 8.61, "unit": "s"}, ...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// metricDef names one reported metric and its unit. The lists below
// mirror BENCHMARK.json (TestMetricListsMatchBenchmarkJSON pins that).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"harness.cells_recorded", "count"},
	{"harness.cells_replayed", "count"},
	{"harness.cells_executed", "count"},
	{"harness.record_s", "s"},
	{"harness.replay_s", "s"},
	{"harness.execute_s", "s"},
	{"harness.pool_idle_pct", "%"},
	{"tracefile.trace_mb", "MB"},
	{"tracefile.decode_s", "s"},
	{"workloads.prologue_s", "s"},
	{"sim.ns_per_access", "ns"},
	{"sim.ns.l1_hit", "ns"},
	{"sim.ns.l2_hit", "ns"},
	{"sim.ns.mem_miss", "ns"},
	{"sim.ns.tlb_miss", "ns"},
	{"sim.ns.row_hit", "ns"},
	{"sim.ns.gather_line", "ns"},
	{"sim.cycles", "count"},
	{"sim.loads", "count"},
	{"sim.stores", "count"},
	{"sim.l1_load_hits", "count"},
	{"sim.l2_load_hits", "count"},
	{"sim.mem_loads", "count"},
	{"sim.tlb_misses", "count"},
	{"sim.bus_bytes", "B"},
	{"sim.dram_row_hits", "count"},
	{"sim.dram_row_misses", "count"},
	{"sim.shadow_reads", "count"},
	{"sim.mc_prefetch_hits", "count"},
	{"sim.sdesc_pref_hits", "count"},
	{"sim.flushed_lines", "count"},
	{"colres.encode_us", "us"},
	{"colres.decode_us", "us"},
	{"colres.json_us", "us"},
	{"service.submit_us", "us"},
	{"service.result_us", "us"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.executed", "count"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"fleet.router_us", "us"},
	{"fleet.hop_us", "us"},
	{"fleet.proxy_errors", "count"},
	{"fleet.rerouted", "count"},
	{"twin.predict_us", "us"},
	{"loadgen.lag_p50_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.achieved_rps.light", "req/s"},
	{"loadgen.achieved_rps.heavy", "req/s"},
	{"ledger.unaccounted_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // the run's scratch directory, removed when it ends
}

// report collects one run's outcome: metric values, human-readable
// lines printed ahead of the JSON, and the failure accounting. Every
// failure counts in failed; errs holds the ones that make the run
// incorrect (a wrong or missing answer, a broken invariant), while
// overload failures past the serve-fleet knee only count.
type report struct {
	vals      map[string]float64
	lines     []string
	attempted int
	failed    int
	errs      []string
}

func newReport() *report { return &report{vals: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.vals[name] = v }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail records one failed operation that makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

type workload struct {
	// run performs the set-up and the measured part and fills r.
	run func(o options, r *report) error
	// setupOnly performs the set-up alone, in a child process timed by
	// the parent (the set-up probe behind setup_s).
	setupOnly func(o options) error
}

var benchWorkloads = map[string]workload{
	"cg-grid":     gridWorkload(cgGeom),
	"mmp-grid":    gridWorkload(mmpGeom),
	"serve-fleet": {run: runServeFleet, setupOnly: serveSetupOnly},
}

func main() {
	var o options
	var traceFlag int
	var setupOnly bool
	var goldenDir string
	flag.StringVar(&o.workload, "workload", "", "cg-grid | mmp-grid | serve-fleet")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 36, "how long the measured part runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for everything the run writes")
	flag.BoolVar(&setupOnly, "setup-only", false, "perform the workload's set-up and exit (the setup_s probe)")
	flag.StringVar(&goldenDir, "write-goldens", "", "regenerate the golden files into this directory and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	if goldenDir != "" {
		if err := writeAllGoldens(goldenDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := benchWorkloads[o.workload]
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (cg-grid|mmp-grid|serve-fleet), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	work, err := os.MkdirTemp(o.out, "work-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.out = work
	if setupOnly {
		err = w.setupOnly(o)
		os.RemoveAll(work)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			os.Exit(1)
		}
		return
	}

	r := newReport()
	err = w.run(o, r)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupSamples times n child processes that each start, perform the
// workload's set-up and exit: set-up time from process start, with the
// exec and package initialisation included.
func setupSamples(o options, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("set-up probe: %w", err)
	}
	var ts []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--setup-only", "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10), "--out", filepath.Dir(o.out))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return ts, nil
}

// emit prints the human-readable lines and then the JSON result line
// with exactly the metrics of the run's mode.
func emit(o options, r *report) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	if out.Attempted < 1 {
		return fmt.Errorf("%s attempted nothing", o.workload)
	}
	for _, line := range r.lines {
		fmt.Println(line)
	}
	for i, e := range r.errs {
		if i == 20 {
			fmt.Printf("FAIL ... and %d more\n", len(r.errs)-i)
			break
		}
		fmt.Println("FAIL", e)
	}
	fmt.Printf("fail_ratio %.6f fraction (%d failed of %d attempted)\n",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	var missing []string
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok && !o.trace {
			missing = append(missing, d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%s did not measure %v", o.workload, missing)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
