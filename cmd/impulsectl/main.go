// Command impulsectl is the client for the impulsed experiment
// service. It submits experiment specs, polls status, fetches results,
// counters, provenance manifests, and Perfetto timelines, cancels jobs,
// tails live progress over SSE, load-tests the daemon's single-flight
// dedup path, and renders a polling terminal dashboard over /metrics.
//
// Usage:
//
//	impulsectl [-addr host:port] submit [-wait] [-counters] (-spec JSON | -f spec.json)
//	impulsectl [-addr host:port] predict [-family NAME] [-fast] [-spec JSON | -f spec.json]
//	impulsectl [-addr host:port] status <job-id>
//	impulsectl [-addr host:port] result [-counters] [-format VIEW] <job-id>
//	impulsectl [-addr host:port] manifest [-wait] <job-id>
//	impulsectl [-addr host:port] trace [-o FILE] <job-id>
//	impulsectl [-addr host:port] cancel <job-id>
//	impulsectl [-addr host:port] watch  <job-id>
//	impulsectl [-addr host:port] load [-n 8] [-tier twin] [-spec JSON | -f spec.json]
//	impulsectl [-addr host:port] saturate [-rates 500,1000,...] [-duration 3s] [-o FILE]
//	impulsectl [-addr host:port] metrics
//	impulsectl [-addr host:port] top [-interval 2s] [-once]
package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"impulse/internal/colres"
	"impulse/internal/obs"
)

var base string

func main() {
	log.SetFlags(0)
	log.SetPrefix("impulsectl: ")
	addr := flag.String("addr", "127.0.0.1:7777", "impulsed address")
	flag.Usage = usage
	flag.Parse()
	base = "http://" + *addr
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "submit":
		err = cmdSubmit(args[1:])
	case "predict":
		err = cmdPredict(args[1:])
	case "status":
		err = cmdStatus(args[1:])
	case "result":
		err = cmdResult(args[1:])
	case "cancel":
		err = cmdCancel(args[1:])
	case "watch":
		err = cmdWatch(args[1:])
	case "load":
		err = cmdLoad(args[1:])
	case "saturate":
		err = cmdSaturate(args[1:])
	case "manifest":
		err = cmdManifest(args[1:])
	case "trace":
		err = cmdTrace(args[1:])
	case "metrics":
		err = cmdMetrics(args[1:])
	case "top":
		err = cmdTop(args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: impulsectl [-addr host:port] <command> [flags]

commands:
  submit   -spec JSON | -f FILE   submit a job (add -wait to block and print the result)
  predict  -family NAME [-fast]   answer a sweep from its analytical twin (POST /v1/predict;
                                  synchronous, microseconds; -spec/-f for a full spec)
  status   <job-id>               print job status JSON
  result   <job-id>               print result bytes (-counters for the counter dump;
                                  -format columnar|json|text|svg for a columnar view)
  manifest <job-id>               print the job's provenance manifest JSON (-wait to block)
  trace    <job-id>               print the job's Perfetto timeline JSON (-o FILE to save)
  cancel   <job-id>               cancel a queued or running job
  watch    <job-id>               stream progress events (SSE)
  load     -n N [-spec ...]       submit N identical specs concurrently; verify single-flight
                                  (-tier twin bursts the analytical tier: zero executions)
  saturate -rates R1,R2,...       sweep open-loop arrival rates against a warmed daemon or
                                  fleet; report served req/s, p50/p99, and the saturation knee
                                  (-o FILE merges benchjson Saturate/ records for committing)
  metrics                         dump /metrics (Prometheus text exposition)
  top                             polling dashboard: queue, cache hit rate, latency quantiles
`)
}

// specBytes resolves the -spec / -f pair into the request body.
func specBytes(spec, file string) ([]byte, error) {
	switch {
	case spec != "" && file != "":
		return nil, fmt.Errorf("-spec and -f are mutually exclusive")
	case spec != "":
		return []byte(spec), nil
	case file != "":
		return os.ReadFile(file)
	default:
		return nil, fmt.Errorf("need -spec JSON or -f FILE")
	}
}

type jobStatus struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Hash    string          `json:"hash"`
	Error   string          `json:"error,omitempty"`
	Deduped bool            `json:"deduped,omitempty"`
	Spec    json.RawMessage `json:"spec"`
}

func decodeError(resp *http.Response, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
}

func postJob(body []byte) (jobStatus, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return jobStatus{}, decodeError(resp, data)
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return jobStatus{}, fmt.Errorf("bad response: %v", err)
	}
	return st, nil
}

// postJobStatus submits without folding HTTP rejections into the error:
// err covers transport and decode failures only, and the status code is
// returned so load generators can account 429s separately from the
// latency percentiles of accepted requests.
func postJobStatus(body []byte) (jobStatus, int, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobStatus{}, 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return jobStatus{}, resp.StatusCode, nil
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return jobStatus{}, resp.StatusCode, fmt.Errorf("bad response: %v", err)
	}
	return st, resp.StatusCode, nil
}

// fetchResult retrieves a terminal job's payload, long-polling until it
// finishes when wait is true.
func fetchResult(id, path string, wait bool) ([]byte, error) {
	for {
		url := base + "/v1/jobs/" + id + path
		if wait {
			if strings.Contains(path, "?") {
				url += "&wait=30s"
			} else {
				url += "?wait=30s"
			}
		}
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return data, nil
		case http.StatusAccepted:
			if !wait {
				return nil, fmt.Errorf("job %s still pending (use submit -wait or result after it finishes)", id)
			}
		default:
			return nil, decodeError(resp, data)
		}
	}
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	spec := fs.String("spec", "", "inline JSON spec")
	file := fs.String("f", "", "spec file")
	wait := fs.Bool("wait", false, "block until the job finishes and print its result")
	counters := fs.Bool("counters", false, "with -wait: print the counter dump instead of the result")
	fs.Parse(args)
	body, err := specBytes(*spec, *file)
	if err != nil {
		return err
	}
	st, err := postJob(body)
	if err != nil {
		return err
	}
	if !*wait {
		fmt.Printf("%s\t%s\thash=%s\tdeduped=%t\n", st.ID, st.State, st.Hash, st.Deduped)
		return nil
	}
	fmt.Fprintf(os.Stderr, "impulsectl: %s submitted (hash=%s deduped=%t), waiting...\n", st.ID, st.Hash, st.Deduped)
	path := "/result"
	if *counters {
		path = "/counters"
	}
	data, err := fetchResult(st.ID, path, true)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

// cmdPredict asks the daemon's analytical-twin tier for an instant
// sweep answer. Unlike submit, there is no job to poll: the response is
// the prediction itself, with tier and error-bound provenance.
func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	family := fs.String("family", "", "sweep family to predict (twin-eligible families only)")
	fast := fs.Bool("fast", false, "predict the family's reduced geometry")
	spec := fs.String("spec", "", "inline JSON spec (alternative to -family/-fast)")
	file := fs.String("f", "", "spec file")
	fs.Parse(args)
	body := []byte(fmt.Sprintf(`{"kind":"sweep","family":%q,"fast":%t}`, *family, *fast))
	if *spec != "" || *file != "" {
		var err error
		if body, err = specBytes(*spec, *file); err != nil {
			return err
		}
	} else if *family == "" {
		return fmt.Errorf("need -family NAME (or -spec/-f)")
	}
	resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp, data)
	}
	_, err = os.Stdout.Write(data)
	return err
}

func cmdStatus(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: status <job-id>")
	}
	resp, err := http.Get(base + "/v1/jobs/" + args[0])
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp, data)
	}
	_, err = os.Stdout.Write(data)
	return err
}

func cmdResult(args []string) error {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	counters := fs.Bool("counters", false, "print the counter dump instead of the rendered result")
	wait := fs.Bool("wait", false, "block until the job finishes")
	format := fs.String("format", "", "render this view of the columnar result: columnar, json, text, or svg (grid kinds only)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: result [-counters] [-wait] [-format VIEW] <job-id>")
	}
	path := "/result"
	switch {
	case *counters:
		path = "/counters"
	case *format != "":
		// The daemon renders the view lazily from the archived columns;
		// -format=columnar streams the raw archived blob.
		path = "/result?view=" + *format
	}
	data, err := fetchResult(fs.Arg(0), path, *wait)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

func cmdCancel(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cancel <job-id>")
	}
	resp, err := http.Post(base+"/v1/jobs/"+args[0]+"/cancel", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp, data)
	}
	_, err = os.Stdout.Write(data)
	return err
}

// cmdWatch tails a job's SSE stream, printing one line per event, and
// returns once the job reaches a terminal state.
func cmdWatch(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: watch <job-id>")
	}
	resp, err := http.Get(base + "/v1/jobs/" + args[0] + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return decodeError(resp, data)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Seq     int    `json:"seq"`
			Type    string `json:"type"`
			State   string `json:"state"`
			Section string `json:"section"`
			Column  string `json:"column"`
			Label   string `json:"label"`
			Chunk   string `json:"chunk"`
		}
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			continue
		}
		switch ev.Type {
		case "state":
			fmt.Printf("[%03d] state: %s\n", ev.Seq, ev.State)
		case "progress":
			fmt.Printf("[%03d] %s / %s\n", ev.Seq, ev.Section, ev.Column)
		case "cell":
			// Incremental columnar row chunk: decode and summarize the
			// cell's metrics as they land, before the job finishes.
			raw, err := base64.StdEncoding.DecodeString(ev.Chunk)
			if err != nil {
				fmt.Printf("[%03d] cell %s (undecodable chunk: %v)\n", ev.Seq, ev.Label, err)
				continue
			}
			row, err := colres.DecodeRow(raw)
			if err != nil {
				fmt.Printf("[%03d] cell %s (bad chunk: %v)\n", ev.Seq, ev.Label, err)
				continue
			}
			fmt.Printf("[%03d] cell %s: cycles=%d L1=%.1f%% avg=%.2f p50/95/99=%d/%d/%d\n",
				ev.Seq, row.Label, row.Cycles, row.L1*100, row.AvgLoad, row.P50, row.P95, row.P99)
		}
	}
	return sc.Err()
}

// metric reads one unlabelled series (a sanitized Prometheus name such
// as service_jobs_executed) from the daemon's /metrics exposition.
func metric(name string) (uint64, error) {
	snap, err := scrapeProm()
	if err != nil {
		return 0, err
	}
	v, ok := snap.scalars[name]
	if !ok {
		return 0, fmt.Errorf("metric %s not found", name)
	}
	return v, nil
}

// cmdLoad submits n copies of the same spec concurrently and verifies
// the single-flight guarantee: every submission lands on one job, every
// result is byte-identical, and service_jobs_executed rises by exactly
// one (unless the spec was already cached, in which case by zero).
func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	n := fs.Int("n", 8, "concurrent identical submissions")
	spec := fs.String("spec", "", "inline JSON spec")
	file := fs.String("f", "", "spec file")
	tier := fs.String("tier", "", `serving tier merged into the spec (e.g. "twin")`)
	fs.Parse(args)
	if *spec == "" && *file == "" {
		// Defaults sized to finish fast: a small Table 1 grid, or a
		// twin-eligible sweep when the burst targets the analytical tier.
		*spec = `{"kind":"table1","n":240,"nonzer":4,"niter":1,"cgits":2}`
		if *tier != "" {
			*spec = `{"kind":"sweep","family":"sram","fast":true}`
		}
	}
	body, err := specBytes(*spec, *file)
	if err != nil {
		return err
	}
	if *tier != "" {
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("bad spec for -tier merge: %v", err)
		}
		m["tier"] = *tier
		if body, err = json.Marshal(m); err != nil {
			return err
		}
	}
	// A fleet router's /metrics has no service_jobs_executed (executions
	// happen on the shards); the execution-count check is skipped there
	// and the smoke tests sum the shard-side counters instead.
	before, execErr := metric("service_jobs_executed")

	// Per-request latency of this client's own stream (submits and
	// result fetches), bucketed the same way the daemon buckets its
	// histograms so the p50/p95/p99 summary matches what a scrape of
	// service.http_request_duration_us would show for this burst. Only
	// accepted (2xx) requests are observed: a router's 429 returns in
	// microseconds and would drag the percentiles toward zero, so
	// rejections are reported as their own error-rate line instead.
	var lat obs.Histogram
	observe := func(start time.Time) { lat.Observe(uint64(time.Since(start).Microseconds())) }

	ids := make([]string, *n)
	codes := make([]int, *n)
	errs := make([]error, *n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			st, code, err := postJobStatus(body)
			if code/100 == 2 && err == nil {
				observe(t0)
			}
			ids[i], codes[i], errs[i] = st.ID, code, err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var okIdx []int
	rejected := map[int]int{} // status -> count
	for i, code := range codes {
		if code/100 == 2 {
			okIdx = append(okIdx, i)
		} else {
			rejected[code]++
		}
	}
	if len(okIdx) == 0 {
		return fmt.Errorf("all %d submissions rejected: %s", *n, fmtStatuses(rejected))
	}
	first := ids[okIdx[0]]
	for _, i := range okIdx[1:] {
		if ids[i] != first {
			return fmt.Errorf("single-flight violated: got distinct jobs %s and %s", first, ids[i])
		}
	}

	results := make([][]byte, len(okIdx))
	ferrs := make([]error, len(okIdx))
	for k := range okIdx {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			t0 := time.Now()
			results[k], ferrs[k] = fetchResult(first, "/result", true)
			if ferrs[k] == nil {
				observe(t0)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range ferrs {
		if err != nil {
			return err
		}
	}
	for k, r := range results[1:] {
		if !bytes.Equal(r, results[0]) {
			return fmt.Errorf("result divergence: fetch %d differs from fetch 0", k+1)
		}
	}

	execs := "executions n/a (routed)"
	if execErr == nil {
		after, err := metric("service_jobs_executed")
		if err != nil {
			return err
		}
		delta := after - before
		if delta > 1 {
			return fmt.Errorf("single-flight violated: %d submissions caused %d executions", len(okIdx), delta)
		}
		execs = fmt.Sprintf("%d execution(s)", delta)
	}
	fmt.Printf("load ok: %d/%d submissions accepted -> job %s, %s, %d identical bytes each, %.2fs\n",
		len(okIdx), *n, first, execs, len(results[0]), time.Since(start).Seconds())
	if len(rejected) > 0 {
		errRate := float64(*n-len(okIdx)) / float64(*n) * 100
		fmt.Printf("errors: %d/%d non-2xx (%.1f%%): %s — excluded from latency percentiles\n",
			*n-len(okIdx), *n, errRate, fmtStatuses(rejected))
	}
	snap := lat.Snapshot()
	fmt.Printf("request latency (%d accepted requests): p50<=%s p95<=%s p99<=%s\n",
		snap.Count, fmtUS(snap.Quantile(50)), fmtUS(snap.Quantile(95)), fmtUS(snap.Quantile(99)))
	return nil
}

// fmtStatuses renders a status->count map as "429 x3, 503 x1".
func fmtStatuses(m map[int]int) string {
	codes := make([]int, 0, len(m))
	for c := range m {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	parts := make([]string, 0, len(codes))
	for _, c := range codes {
		parts = append(parts, fmt.Sprintf("%d x%d", c, m[c]))
	}
	return strings.Join(parts, ", ")
}

// fmtUS renders a microsecond quantity with a human unit.
func fmtUS(us uint64) string {
	return time.Duration(us * uint64(time.Microsecond)).Round(time.Microsecond).String()
}
