// Command benchjson converts `go test -bench -benchmem` text output
// (read from stdin) into a stable JSON document, so benchmark results
// can be committed and diffed across PRs (`make bench-json`).
//
// Each benchmark becomes one record:
//
//	{"name": "SimL1Hit", "ns_per_op": 23.58, "bytes_per_op": 0,
//	 "allocs_per_op": 0, "iterations": 48036778}
//
// Custom metrics (the sim benchmarks report "sim-cycles") are carried
// through in a "metrics" map. Non-benchmark lines are ignored. When the
// input repeats a benchmark (`go test -count N`), its record holds the
// median of each field over the N runs, the run count in "runs", and
// the interquartile range of ns/op in "ns_per_op_iqr", so the committed
// number carries its own spread.
//
// With -compare BASELINE.json the fresh results are instead diffed
// against a previously committed document (`make bench-diff`): one line
// per benchmark with the ns/op delta and the sim-cycles movement, and a
// non-zero exit when any ns/op median rises by more than the baseline's
// interquartile range (as a share of its median) plus -threshold
// percent. A baseline record without a spread compares against the
// threshold alone.
//
// When the input carries the analytical-twin pair (TwinPredict/F and
// TwinSimBaseline/F, see internal/twin) a per-family twin-vs-sim
// latency summary is appended: the speedup the instant tier buys over
// the cache-miss simulation path.
//
// With -grid FILE.impres the command instead reads a columnar result
// blob (the archive format impulsed stores and `impulsectl result
// -format=columnar` fetches) straight off the columns and renders the
// view named by -format (json or text) to stdout — no daemon needed to
// inspect an archived result.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"impulse/internal/colres"
)

type record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Runs and NsPerOpIQR are set when the input held more than one run
	// of the benchmark: every other field is then a median over Runs.
	Runs       int     `json:"runs,omitempty"`
	NsPerOpIQR float64 `json:"ns_per_op_iqr,omitempty"`
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkSimL1Hit-8  48036778  23.58 ns/op  0 B/op  0 allocs/op  12 sim-cycles
//
// returning ok=false for anything that is not a benchmark result.
func parseLine(line string) (record, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return record{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return record{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix so names are machine-independent.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	r := record{Name: name, Iterations: iters}
	// Remaining fields come in "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return record{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// quantile returns the q-quantile of sorted, interpolating linearly
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median returns the median of vals, which it sorts.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	return quantile(vals, 0.5)
}

// summarize folds repeated runs of one benchmark into one record per
// name, in the order names first appear: a lone run is kept as it is,
// and repeated runs become their medians, with the run count and the
// interquartile range of ns/op.
func summarize(runs []record) []record {
	var order []string
	byName := make(map[string][]record)
	for _, r := range runs {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]record, 0, len(order))
	for _, name := range order {
		rs := byName[name]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		field := func(get func(record) float64) []float64 {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = get(r)
			}
			return vals
		}
		ns := field(func(r record) float64 { return r.NsPerOp })
		sum := record{
			Name:        name,
			Iterations:  int64(median(field(func(r record) float64 { return float64(r.Iterations) }))),
			NsPerOp:     median(ns),
			BytesPerOp:  int64(median(field(func(r record) float64 { return float64(r.BytesPerOp) }))),
			AllocsPerOp: int64(median(field(func(r record) float64 { return float64(r.AllocsPerOp) }))),
			Runs:        len(rs),
			NsPerOpIQR:  quantile(ns, 0.75) - quantile(ns, 0.25),
		}
		for unit := range rs[0].Metrics {
			if sum.Metrics == nil {
				sum.Metrics = make(map[string]float64)
			}
			sum.Metrics[unit] = median(field(func(r record) float64 { return r.Metrics[unit] }))
		}
		out = append(out, sum)
	}
	return out
}

// diff prints one line per fresh benchmark with the ns/op movement
// against the baseline and the sim-cycles metric movement (simulated
// work should not change in a pure-performance PR). It returns an error
// naming every benchmark whose ns/op rose by more than the baseline's
// own spread (its interquartile range as a share of its median, zero for
// a baseline of one run) plus thresholdPct.
func diff(w io.Writer, baselinePath string, fresh []record, thresholdPct float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base []record
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	byName := make(map[string]record, len(base))
	for _, r := range base {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-32s %14s %14s %9s %8s  %s\n", "benchmark", "base ns/op", "new ns/op", "delta", "spread", "sim-cycles")
	var regressed []string
	for _, r := range fresh {
		b, ok := byName[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-32s %14s %14.0f %9s %8s  new benchmark\n", r.Name, "-", r.NsPerOp, "-", "-")
			continue
		}
		delete(byName, r.Name)
		pct := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		spreadPct := b.NsPerOpIQR / b.NsPerOp * 100
		cyc := ""
		if bc, ok := b.Metrics["sim-cycles"]; ok {
			if nc := r.Metrics["sim-cycles"]; nc == bc {
				cyc = fmt.Sprintf("%.0f (unchanged)", nc)
			} else {
				cyc = fmt.Sprintf("%.0f -> %.0f (CHANGED)", bc, nc)
			}
		}
		fmt.Fprintf(w, "%-32s %14.0f %14.0f %+8.1f%% %7.1f%%  %s\n", r.Name, b.NsPerOp, r.NsPerOp, pct, spreadPct, cyc)
		if pct > spreadPct+thresholdPct {
			regressed = append(regressed, fmt.Sprintf("%s (%+.1f%%, spread %.1f%%)", r.Name, pct, spreadPct))
		}
	}
	removed := make([]string, 0, len(byName))
	for name := range byName {
		// Saturate/ points come from `impulsectl saturate -o`, not from
		// `go test -bench`, so a bench-only rerun never reproduces them;
		// their absence is not a removed benchmark.
		if strings.HasPrefix(name, "Saturate/") {
			continue
		}
		removed = append(removed, name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "%-32s %14.0f %14s %9s %8s  removed\n", name, byName[name].NsPerOp, "-", "-", "-")
	}
	if len(regressed) > 0 {
		return fmt.Errorf("ns/op regressions beyond the baseline's spread plus %.1f%%: %s", thresholdPct, strings.Join(regressed, ", "))
	}
	return nil
}

// twinCompare prints the analytical-tier headline whenever the record
// set carries both sides of a twin pair: the twin's full-prediction
// latency (TwinPredict/family) against the cold-memo simulation of the
// same family at the same geometry (TwinSimBaseline/family).
func twinCompare(w io.Writer, recs []record) {
	byName := make(map[string]record, len(recs))
	for _, r := range recs {
		byName[r.Name] = r
	}
	printed := false
	for _, r := range recs {
		fam, ok := strings.CutPrefix(r.Name, "TwinPredict/")
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		sim, ok := byName["TwinSimBaseline/"+fam]
		if !ok {
			continue
		}
		if !printed {
			fmt.Fprintln(w, "twin vs sim latency (fast geometry, cell memo cold):")
			printed = true
		}
		fmt.Fprintf(w, "  %-12s twin %12.0f ns/op   sim %14.0f ns/op   %.0fx\n",
			fam, r.NsPerOp, sim.NsPerOp, sim.NsPerOp/r.NsPerOp)
	}
}

// renderGrid decodes a columnar result blob and writes the requested
// view to stdout.
func renderGrid(path, format string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := colres.Decode(blob)
	if err != nil {
		return err
	}
	switch format {
	case "json":
		return colres.WriteGridJSON(doc, os.Stdout)
	case "text":
		return colres.RenderText(doc, os.Stdout)
	default:
		return fmt.Errorf("-format %q must be json or text with -grid", format)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	compare := flag.String("compare", "", "diff against this baseline JSON instead of emitting JSON")
	threshold := flag.Float64("threshold", 10, "with -compare: exit non-zero when any ns/op median rises by more than the baseline's spread plus this percent")
	grid := flag.String("grid", "", "read a columnar result blob from this file and render it instead of parsing benchmarks")
	format := flag.String("format", "json", "with -grid: view to render (json or text)")
	flag.Parse()

	if *grid != "" {
		if err := renderGrid(*grid, *format); err != nil {
			log.Fatal(err)
		}
		return
	}

	var recs []record
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		// Mirror the raw line to stderr so piping through benchjson
		// doesn't hide the live benchmark progress.
		fmt.Fprintln(os.Stderr, sc.Text())
		if r, ok := parseLine(sc.Text()); ok {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(recs) == 0 {
		log.Fatal("no benchmark lines found on stdin (run: go test -run '^$' -bench . -benchmem | benchjson)")
	}
	recs = summarize(recs)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *compare != "" {
		err := diff(os.Stdout, *compare, recs, *threshold)
		twinCompare(os.Stdout, recs)
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	twinCompare(os.Stderr, recs)
	if *out == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			log.Fatal(err)
		}
	}
}
