// The observability subcommands: `metrics` (raw scrape), `manifest` and
// `trace` (per-job provenance and Perfetto timeline), and `top`, a
// polling terminal dashboard built from the daemon's Prometheus
// exposition — queue depth, in-flight work, cache hit rate, and latency
// quantiles recovered from the power-of-two histogram buckets.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func cmdManifest(args []string) error {
	fs := flag.NewFlagSet("manifest", flag.ExitOnError)
	wait := fs.Bool("wait", false, "block until the job finishes")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: manifest [-wait] <job-id>")
	}
	data, err := fetchResult(fs.Arg(0), "/manifest", *wait)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "", "write the timeline JSON to FILE (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: trace [-o FILE] <job-id>")
	}
	resp, err := http.Get(base + "/v1/jobs/" + fs.Arg(0) + "/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp, data)
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "impulsectl: wrote %s (open in ui.perfetto.dev)\n", *out)
		return nil
	}
	_, err = os.Stdout.Write(data)
	return err
}

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	fs.Parse(args)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return decodeError(resp, data)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// promSample is one parsed exposition line: name{labels} value.
type promSample struct {
	name   string
	labels map[string]string
	value  uint64
}

// parseProm parses the subset of the Prometheus text format the daemon
// emits: integer-valued samples with at most two label pairs, comments
// skipped. Unparseable lines are ignored (forward compatibility).
func parseProm(text string) []promSample {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseUint(valStr, 10, 64)
		if err != nil {
			continue
		}
		s := promSample{labels: map[string]string{}, value: val}
		if br := strings.IndexByte(series, '{'); br >= 0 {
			s.name = series[:br]
			body := strings.TrimSuffix(series[br+1:], "}")
			for _, pair := range strings.Split(body, ",") {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 {
					continue
				}
				k := pair[:eq]
				v := strings.Trim(pair[eq+1:], `"`)
				s.labels[k] = v
			}
		} else {
			s.name = series
		}
		out = append(out, s)
	}
	return out
}

// promSnapshot indexes a scrape for the dashboard: scalars by name, and
// histogram bucket series by (family, label value).
type promSnapshot struct {
	scalars map[string]uint64
	hists   map[string]*promHist // "family|labelval"
}

type promHist struct {
	family   string
	labelVal string
	les      []float64 // bucket upper bounds, ascending; +Inf last
	cums     []uint64  // cumulative counts, parallel to les
	count    uint64
	sum      uint64
}

// quantile recovers an upper bound for the p-th percentile from the
// cumulative buckets (the daemon's power-of-two bounds, so the answer is
// exact to within a factor of two — good enough for a dashboard).
func (h *promHist) quantile(p float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(h.count))
	if rank == 0 {
		rank = 1
	}
	for i, c := range h.cums {
		if c >= rank {
			return h.les[i]
		}
	}
	return math.Inf(1)
}

func snapshotProm(samples []promSample) *promSnapshot {
	snap := &promSnapshot{scalars: map[string]uint64{}, hists: map[string]*promHist{}}
	histAt := func(family, lv string) *promHist {
		key := family + "|" + lv
		h := snap.hists[key]
		if h == nil {
			h = &promHist{family: family, labelVal: lv}
			snap.hists[key] = h
		}
		return h
	}
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			family := strings.TrimSuffix(s.name, "_bucket")
			le := s.labels["le"]
			lv := ""
			for k, v := range s.labels {
				if k != "le" {
					lv = v
				}
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				if f, err := strconv.ParseFloat(le, 64); err == nil {
					bound = f
				}
			}
			h := histAt(family, lv)
			h.les = append(h.les, bound)
			h.cums = append(h.cums, s.value)
		case strings.HasSuffix(s.name, "_count"):
			family := strings.TrimSuffix(s.name, "_count")
			lv := ""
			for _, v := range s.labels {
				lv = v
			}
			histAt(family, lv).count = s.value
		case strings.HasSuffix(s.name, "_sum"):
			family := strings.TrimSuffix(s.name, "_sum")
			lv := ""
			for _, v := range s.labels {
				lv = v
			}
			histAt(family, lv).sum = s.value
		case len(s.labels) == 0:
			snap.scalars[s.name] = s.value
		}
	}
	// Buckets arrive in emission order (ascending le); sort defensively.
	for _, h := range snap.hists {
		sort.Sort(&bucketSort{h})
	}
	return snap
}

type bucketSort struct{ h *promHist }

func (b *bucketSort) Len() int           { return len(b.h.les) }
func (b *bucketSort) Less(i, j int) bool { return b.h.les[i] < b.h.les[j] }
func (b *bucketSort) Swap(i, j int) {
	b.h.les[i], b.h.les[j] = b.h.les[j], b.h.les[i]
	b.h.cums[i], b.h.cums[j] = b.h.cums[j], b.h.cums[i]
}

func scrapeProm() (*promSnapshot, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp, data)
	}
	return snapshotProm(parseProm(string(data))), nil
}

func fmtUSf(us float64) string {
	if math.IsInf(us, 1) {
		return "inf"
	}
	return fmtUS(uint64(us))
}

// renderTop writes one dashboard frame.
func renderTop(w io.Writer, snap *promSnapshot, now time.Time) {
	sc := func(name string) uint64 { return snap.scalars[name] }
	fmt.Fprintf(w, "impulse top  %s  %s\n\n", base, now.Format("15:04:05"))
	fmt.Fprintf(w, "queue %d/%d   running %d/%d   http in-flight %d   harness workers %d   uptime %s\n",
		sc("service_queue_depth"), sc("service_queue_capacity"),
		sc("service_jobs_running"), sc("service_executors"),
		sc("service_http_in_flight"), sc("service_harness_workers"),
		time.Duration(sc("service_uptime_seconds"))*time.Second)
	submitted := sc("service_jobs_submitted")
	hits, deduped := sc("service_jobs_cache_hits"), sc("service_jobs_deduped")
	rate := 0.0
	if submitted > 0 {
		rate = float64(hits+deduped) / float64(submitted) * 100
	}
	fmt.Fprintf(w, "jobs  submitted %d   executed %d   done %d   failed %d   cancelled %d   rejected %d\n",
		submitted, sc("service_jobs_executed"), sc("service_jobs_done"),
		sc("service_jobs_failed"), sc("service_jobs_cancelled"), sc("service_jobs_rejected_queue_full"))
	fmt.Fprintf(w, "cache cache-hit %d   dedup %d   miss %d   coalesce rate %.1f%%\n\n",
		hits, deduped, sc("service_jobs_cache_miss"), rate)

	printHists := func(title, family string) {
		var rows []*promHist
		for _, h := range snap.hists {
			if h.family == family && h.count > 0 {
				rows = append(rows, h)
			}
		}
		if len(rows) == 0 {
			return
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].labelVal < rows[j].labelVal })
		fmt.Fprintf(w, "%s\n", title)
		for _, h := range rows {
			mean := time.Duration(h.sum/h.count) * time.Microsecond
			fmt.Fprintf(w, "  %-12s n=%-6d mean=%-10s p50<=%-10s p99<=%s\n",
				h.labelVal, h.count, mean, fmtUSf(h.quantile(50)), fmtUSf(h.quantile(99)))
		}
		fmt.Fprintln(w)
	}
	printHists("job run duration by kind", "service_job_run_duration_us")
	printHists("job queue wait by kind", "service_job_queue_wait_us")
	printHists("http request duration by endpoint", "service_http_request_duration_us")
}

// cmdTop polls /metrics and redraws the dashboard until interrupted.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "print a single frame and exit (no screen clearing)")
	fs.Parse(args)
	for {
		snap, err := scrapeProm()
		if err != nil {
			return err
		}
		var b strings.Builder
		renderTop(&b, snap, time.Now())
		if *once {
			_, err := os.Stdout.WriteString(b.String())
			return err
		}
		// Home the cursor and clear below rather than a full clear: less
		// flicker at 2s refresh.
		fmt.Print("\x1b[H\x1b[2J" + b.String())
		time.Sleep(*interval)
	}
}
