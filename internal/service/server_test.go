package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"impulse/internal/harness"
)

func postSpec(t *testing.T, ts *httptest.Server, spec string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

func TestHTTPSubmitLifecycle(t *testing.T) {
	stub := newStub()
	s := New(Config{QueueDepth: 4, Executors: 1})
	s.executeFn = stub.fn
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postSpec(t, ts, `{"kind":"sim","workload":"diag","n":512}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s %s", resp.Status, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	<-stub.started

	// Duplicate submission: 200 (not 202), same job, deduped flag set.
	resp2, body2 := postSpec(t, ts, `{"kind":"sim","workload":"diag","n":512}`)
	var st2 JobStatus
	if err := json.Unmarshal(body2, &st2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || st2.ID != st.ID || !st2.Deduped {
		t.Fatalf("dedup: %s id=%s deduped=%v (want 200, %s, true)", resp2.Status, st2.ID, st2.Deduped, st.ID)
	}

	// Result before completion: 202 + Retry-After.
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusAccepted || rr.Header.Get("Retry-After") == "" {
		t.Fatalf("pending result: %s retry-after=%q", rr.Status, rr.Header.Get("Retry-After"))
	}

	close(stub.release)
	// Long-poll picks the result up as soon as the job lands.
	rr2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rr2.Body)
	rr2.Body.Close()
	if rr2.StatusCode != http.StatusOK || string(got) != "stub output\n" {
		t.Fatalf("result: %s %q", rr2.Status, got)
	}
	if h := rr2.Header.Get("X-Impulse-Spec-Hash"); h != st.Hash {
		t.Errorf("result hash header = %q, want %q", h, st.Hash)
	}

	// Counters endpoint serves the registry dump.
	cr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/counters")
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := io.ReadAll(cr.Body)
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK || string(cb) != "c 1\n" {
		t.Fatalf("counters: %s %q", cr.Status, cb)
	}

	// Unknown job: 404.
	nr, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, nr.Body)
	nr.Body.Close()
	if nr.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %s", nr.Status)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	stub := newStub()
	s := New(Config{QueueDepth: 1, Executors: 1})
	s.executeFn = stub.fn
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postSpec(t, ts, `{"kind":"sim","workload":"diag","n":512}`)
	<-stub.started
	postSpec(t, ts, `{"kind":"sim","workload":"diag","n":513}`)
	resp, body := postSpec(t, ts, `{"kind":"sim","workload":"diag","n":514}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %s %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(stub.release)
}

// TestHTTPQueueFullRetryAfter: a 429 prices the backlog from measured
// run time. Its Retry-After header and retry_after_s both read
// ceil((queued+1) × run ÷ executors) seconds, or 1 before any job has
// run, and a client that waits that long is admitted on its first retry.
func TestHTTPQueueFullRetryAfter(t *testing.T) {
	const run = 400 * time.Millisecond
	gate := make(chan struct{})
	s := New(Config{QueueDepth: 2, Executors: 1})
	s.executeFn = func(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		select {
		case <-time.After(run):
			return &Result{Output: []byte("ok\n"), MIME: "text/plain"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := func(n int) string { return fmt.Sprintf(`{"kind":"sim","workload":"diag","n":%d}`, 100+n) }
	admit := func(n int) *Job {
		t.Helper()
		resp, body := postSpec(t, ts, spec(n))
		var st JobStatus
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &st) != nil {
			t.Fatalf("submit n=%d: %s %s", n, resp.Status, body)
		}
		j, _ := s.Get(st.ID)
		return j
	}
	reject := func(n int) int {
		t.Helper()
		resp, body := postSpec(t, ts, spec(n))
		var m struct {
			RetryAfter int `json:"retry_after_s"`
		}
		if resp.StatusCode != http.StatusTooManyRequests || json.Unmarshal(body, &m) != nil {
			t.Fatalf("overflow submit n=%d: %s %s", n, resp.Status, body)
		}
		header, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || header != m.RetryAfter {
			t.Fatalf("Retry-After %q, body retry_after_s %d: want one integer in both",
				resp.Header.Get("Retry-After"), m.RetryAfter)
		}
		return header
	}

	// No job has finished yet: job 1 holds the executor at the gate, jobs
	// 2 and 3 fill the queue.
	first := admit(1)
	waitState(t, first, StateRunning)
	second := admit(2)
	admit(3)
	if got := reject(4); got != 1 {
		t.Fatalf("Retry-After before any run = %d, want 1", got)
	}

	// Job 1 finishes after one measured run; job 2 takes the executor and
	// job 5 refills the queue behind job 3.
	close(gate)
	waitState(t, first, StateDone)
	waitState(t, second, StateRunning)
	admit(5)
	got := reject(6)
	s.mu.Lock()
	measured := s.runS
	s.mu.Unlock()
	if measured < run.Seconds() {
		t.Fatalf("measured run %.3fs, shorter than the executor's %v", measured, run)
	}
	if want := int(math.Ceil((2 + 1) * measured / 1)); got != want || got < 2 {
		t.Fatalf("Retry-After %d, want ceil((2 queued + 1) × %.3fs ÷ 1 executor) = %d", got, measured, want)
	}

	// A client that waits as told finds room.
	time.Sleep(time.Duration(got) * time.Second)
	admit(6)
}

func TestHTTPBadSpecs(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, spec := range []string{
		`not json`,
		`{"kind":"nope"}`,
		`{"kind":"table1","bogus":true}`,
		`{"kind":"table1","n":4}`, // out of range
	} {
		resp, body := postSpec(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: %s %s, want 400", spec, resp.Status, body)
		}
	}
}

func TestHTTPCancelAndSSE(t *testing.T) {
	stub := newStub()
	s := New(Config{QueueDepth: 4, Executors: 1})
	s.executeFn = stub.fn
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postSpec(t, ts, `{"kind":"sim","workload":"diag","n":512}`)
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	<-stub.started

	// Tail the SSE stream while cancelling the job out from under it.
	evResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}

	cr, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, cr.Body)
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", cr.Status)
	}

	// The stream must terminate with a "cancelled" state event.
	var states []string
	sc := bufio.NewScanner(evResp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if ev.Type == "state" {
			states = append(states, string(ev.State))
		}
	}
	if len(states) == 0 || states[len(states)-1] != "cancelled" {
		t.Fatalf("SSE states = %v, want trailing \"cancelled\"", states)
	}

	// Result of a cancelled job: 410.
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusGone {
		t.Fatalf("cancelled result: %s, want 410", rr.Status)
	}
}

func TestHTTPMetricsAndHealthz(t *testing.T) {
	s := New(Config{QueueDepth: 7, Executors: 3})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !bytes.Contains(hb, []byte(`"status": "ok"`)) {
		t.Fatalf("healthz: %s %s", hr.Status, hb)
	}

	// Default exposition is Prometheus: typed families, sanitized names.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	ct := mr.Header.Get("Content-Type")
	mr.Body.Close()
	if ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("metrics content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE service_jobs_submitted counter",
		"# TYPE service_jobs_running gauge",
		"# TYPE service_http_request_duration_us histogram",
		"service_jobs_submitted 0",
		"service_jobs_executed 0",
		"service_queue_capacity 7",
		"service_executors 3",
		`service_http_request_duration_us_bucket{endpoint="healthz",le="+Inf"} 1`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q:\n%s", want, mb)
		}
	}
}

// execDirect replicates what the CLIs do for the differential tests: run
// the harness call directly with a fresh registry-collecting sink and
// render to text, without going through the service at all.
func execDirect(t *testing.T, spec Spec) ([]byte, []byte) {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), norm, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Output, res.Counters
}

// TestDifferentialEligibleFamily: a service job for a grid family
// (Table 1) returns bytes identical to the direct harness run — through
// HTTP, with ≥8 concurrent identical submissions resolving to exactly
// one harness execution. A second job over the same grid (another
// format, so another spec hash) reuses every cell from the harness's
// cell memo.
func TestDifferentialEligibleFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real CG grid")
	}
	harness.ResetTraceCache()
	defer harness.ResetTraceCache()

	spec := Spec{Kind: "table1", N: 240, Nonzer: 4, Niter: 1, CGIts: 2}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantCtr := func() ([]byte, []byte) {
		res, err := Execute(context.Background(), norm, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Output, res.Counters
	}()

	harness.ResetTraceCache() // the service run must not reuse the direct run's cells

	s := New(Config{QueueDepth: 16, Executors: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(spec)
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submissions split across jobs %s and %s", ids[0], ids[i])
		}
	}

	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[i] + "/result?wait=120s")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Errorf("result %d: %s %s", i, resp.Status, b)
				return
			}
			results[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("submission %d got different bytes", i)
		}
	}
	if !bytes.Equal(results[0], wantOut) {
		t.Errorf("service output differs from direct harness run\n--- service ---\n%s--- direct ---\n%s", results[0], wantOut)
	}
	if got := s.cExecuted.Load(); got != 1 {
		t.Errorf("%d concurrent submissions caused %d executions, want 1", n, got)
	}

	cr, err := http.Get(ts.URL + "/v1/jobs/" + ids[0] + "/counters")
	if err != nil {
		t.Fatal(err)
	}
	gotCtr, _ := io.ReadAll(cr.Body)
	cr.Body.Close()
	if !bytes.Equal(gotCtr, wantCtr) {
		t.Errorf("service counters differ from direct run (%d vs %d bytes)", len(gotCtr), len(wantCtr))
	}

	// Provenance: every one of Table 1's 12 cells is its own pool task
	// that executes the workload, and every cell is timed.
	man := fetchManifest(t, ts, ids[0])
	if man.CellsExecuted != 12 || man.CellsRecorded != 0 || man.CellsReplayed != 0 || man.CellsReused != 0 || len(man.Cells) != 12 {
		t.Errorf("manifest cells: executed=%d recorded=%d replayed=%d reused=%d total=%d, want 12/0/0/0/12",
			man.CellsExecuted, man.CellsRecorded, man.CellsReplayed, man.CellsReused, len(man.Cells))
	}
	for _, c := range man.Cells {
		if c.DurationUS < 0 || c.Key == "" || c.Mode != "execute" {
			t.Errorf("bad cell manifest entry: %+v", c)
		}
	}

	// The same grid as JSON is a distinct job; its cells all come from
	// the memo.
	jj, _, err := s.Submit(Spec{Kind: "table1", N: 240, Nonzer: 4, Niter: 1, CGIts: 2, Format: "json"})
	if err != nil {
		t.Fatal(err)
	}
	<-jj.Done()
	if jj.Result() == nil {
		t.Fatalf("json job failed: %+v", jj.Status())
	}
	man = fetchManifest(t, ts, jj.ID)
	if man.CellsReused != 12 || man.CellsExecuted != 0 || len(man.Cells) != 12 {
		t.Errorf("second job cells: reused=%d executed=%d total=%d, want 12/0/12",
			man.CellsReused, man.CellsExecuted, len(man.Cells))
	}
	if got := s.cExecuted.Load(); got != 2 {
		t.Errorf("service ran %d jobs, want 2", got)
	}
}

func fetchManifest(t *testing.T, ts *httptest.Server, id string) Manifest {
	t.Helper()
	mrr, err := http.Get(ts.URL + "/v1/jobs/" + id + "/manifest?wait=60s")
	if err != nil {
		t.Fatal(err)
	}
	mBody, _ := io.ReadAll(mrr.Body)
	mrr.Body.Close()
	var man Manifest
	if err := json.Unmarshal(mBody, &man); err != nil {
		t.Fatalf("manifest: %v\n%s", err, mBody)
	}
	return man
}

// TestDifferentialIneligibleFamily: same contract for a run outside the
// grid-cell path (figure1's two cells run as plain pool tasks, outside
// the cell memo), so that path is covered too.
func TestDifferentialIneligibleFamily(t *testing.T) {
	harness.ResetTraceCache()
	defer harness.ResetTraceCache()
	spec := Spec{Kind: "figure1", Dim: 64, Sweeps: 2}
	wantOut, wantCtr := execDirect(t, spec)

	s := New(Config{QueueDepth: 4, Executors: 1})
	defer s.Close()
	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("figure1 job did not finish")
	}
	res := j.Result()
	if res == nil {
		t.Fatalf("job failed: %+v", j.Status())
	}
	if !bytes.Equal(res.Output, wantOut) {
		t.Errorf("service figure1 output differs from direct run\n--- service ---\n%s--- direct ---\n%s", res.Output, wantOut)
	}
	if !bytes.Equal(res.Counters, wantCtr) {
		t.Errorf("service figure1 counters differ from direct run")
	}
	if len(wantOut) == 0 {
		t.Error("figure1 produced no output")
	}
}

// TestConcurrentDistinctJobs: two different specs run concurrently on
// two executors without crosstalk between their row sinks — each job's
// counters describe its own run only.
func TestConcurrentDistinctJobs(t *testing.T) {
	harness.ResetTraceCache()
	defer harness.ResetTraceCache()
	s := New(Config{QueueDepth: 8, Executors: 2})
	defer s.Close()

	ja, _, err := s.Submit(Spec{Kind: "sim", Workload: "diag", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	jb, _, err := s.Submit(Spec{Kind: "sim", Workload: "ipc"})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{ja, jb} {
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s did not finish", j.ID)
		}
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job %s: %+v", j.ID, st)
		}
	}
	a, b := ja.Result(), jb.Result()
	if bytes.Equal(a.Output, b.Output) {
		t.Error("distinct workloads produced identical output")
	}
	// Each matches its own serial re-run exactly (no cross-job row leaks).
	for _, tc := range []struct {
		j    *Job
		spec Spec
	}{{ja, Spec{Kind: "sim", Workload: "diag", N: 64}}, {jb, Spec{Kind: "sim", Workload: "ipc"}}} {
		wantOut, wantCtr := execDirect(t, tc.spec)
		if !bytes.Equal(tc.j.Result().Output, wantOut) {
			t.Errorf("job %s output differs from serial run", tc.j.ID)
		}
		if !bytes.Equal(tc.j.Result().Counters, wantCtr) {
			t.Errorf("job %s counters differ from serial run", tc.j.ID)
		}
	}
}

// TestHTTPDrainRejectsClearly: during drain, submissions get an explicit
// 503 with a machine-readable error, and healthz flips to draining.
func TestHTTPDrainRejectsClearly(t *testing.T) {
	s := New(Config{QueueDepth: 4, Executors: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body := postSpec(t, ts, `{"kind":"sim","workload":"diag","n":512}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %s %s, want 503", resp.Status, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "draining") {
		t.Errorf("drain error body = %s", body)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(hb, []byte("draining")) {
		t.Errorf("healthz during drain: %s %s", hr.Status, hb)
	}
}
