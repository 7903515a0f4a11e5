package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"impulse/internal/service"
)

// fakeShard is a minimal impulsed stand-in: always ready, records
// submissions and the path of every request it receives, and answers
// with configurable status codes — full control for the router-logic
// tests (the integration tests below use real services).
type fakeShard struct {
	srv       *httptest.Server
	submits   atomic.Uint64
	reject429 atomic.Bool
	mu        sync.Mutex
	hashes    []string
	paths     []string
}

func newFakeShard(t testing.TB) *fakeShard {
	f := &fakeShard{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok","queue_depth":3,"queue_capacity":8,"running":1,"executors":2}`)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if f.reject429.Load() {
			w.Header().Set("Retry-After", "7")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"service: job queue full","retry_after_s":7}`)
			return
		}
		body, _ := io.ReadAll(r.Body)
		norm, err := service.ParseSpec(body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		n := f.submits.Add(1)
		f.mu.Lock()
		f.hashes = append(f.hashes, norm.Hash())
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j-%06d","state":"queued","hash":%q}`, n, norm.Hash())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"state":"done"}`, r.PathValue("id"))
	})
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.paths = append(f.paths, r.URL.Path)
		f.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// requests returns the paths of the requests f received from the n-th
// on.
func (f *fakeShard) requests(n int) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.paths[n:]...)
}

func newTestRouter(t testing.TB, shards []ShardConfig) (*Router, *service.Service) {
	t.Helper()
	local := service.New(service.Config{Executors: 1})
	t.Cleanup(local.Close)
	rt, err := New(Config{Shards: shards, Local: local, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, local
}

func simSpec(n int) string {
	return fmt.Sprintf(`{"kind":"sim","workload":"diag","n":%d}`, n)
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &m)
	return resp, m
}

// TestRendezvousRouting: identical specs always land on one shard;
// distinct specs spread across shards; job IDs come back namespaced.
func TestRendezvousRouting(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t), newFakeShard(t)}
	rt, _ := newTestRouter(t, []ShardConfig{
		{Name: "s0", URL: fakes[0].srv.URL},
		{Name: "s1", URL: fakes[1].srv.URL},
		{Name: "s2", URL: fakes[2].srv.URL},
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	var firstShard string
	for i := 0; i < 5; i++ {
		resp, m := postJSON(t, ts.URL+"/v1/jobs", simSpec(64))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		shardName := resp.Header.Get("X-Impulse-Shard")
		if i == 0 {
			firstShard = shardName
		} else if shardName != firstShard {
			t.Fatalf("identical spec routed to %s then %s", firstShard, shardName)
		}
		id, _ := m["id"].(string)
		if !strings.HasPrefix(id, shardName+".") {
			t.Fatalf("job id %q not namespaced by shard %s", id, shardName)
		}
	}
	var total uint64
	for _, f := range fakes {
		total += f.submits.Load()
	}
	if total != 5 {
		t.Fatalf("5 identical submissions produced %d shard submits across the fleet", total)
	}

	// Distinct specs spread (deterministic given fixed hashes).
	for n := 100; n < 140; n++ {
		postJSON(t, ts.URL+"/v1/jobs", simSpec(n))
	}
	hit := 0
	for _, f := range fakes {
		if f.submits.Load() > 0 {
			hit++
		}
	}
	if hit < 2 {
		t.Fatalf("40 distinct specs all routed to %d shard(s)", hit)
	}
}

// TestJobProxyByPrefix: a namespaced ID proxies to its owner with the
// prefix stripped; an unknown prefix is treated as router-local (404
// from the local service).
func TestJobProxyByPrefix(t *testing.T) {
	f := newFakeShard(t)
	rt, _ := newTestRouter(t, []ShardConfig{{Name: "s0", URL: f.srv.URL}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/s0.j-000042")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || m["id"] != "j-000042" {
		t.Fatalf("proxied status lookup: %d %v", resp.StatusCode, m)
	}
	if got := resp.Header.Get("X-Impulse-Shard"); got != "s0" {
		t.Fatalf("X-Impulse-Shard %q", got)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/j-000001")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unprefixed unknown id: status %d, want 404 from local service", resp.StatusCode)
	}
}

// TestJobPathDotSegments: a local ID or subpath that decodes to a `.` or
// `..` segment is refused without contacting the shard, which would
// otherwise resolve it to a path outside /v1/jobs/; and a redirect the
// shard answers goes back to the client instead of being followed.
func TestJobPathDotSegments(t *testing.T) {
	f := newFakeShard(t)
	rt, _ := newTestRouter(t, []ShardConfig{{Name: "s0", URL: f.srv.URL}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	get := func(path string) (*http.Response, []string) {
		t.Helper()
		seen := len(f.requests(0))
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp, f.requests(seen)
	}

	for _, path := range []string{
		"/v1/jobs/s0.%2e%2e/%2e%2e/healthz",
		"/v1/jobs/s0.j-1/%2e%2e/%2e%2e/healthz",
		"/v1/jobs/s0.%2e",
	} {
		resp, got := get(path)
		if resp.StatusCode != http.StatusBadRequest || len(got) > 0 {
			t.Errorf("GET %s: status %d, shard received %q; want 400 and nothing", path, resp.StatusCode, got)
		}
	}

	// The shard's mux redirects a path with an empty segment to its
	// clean form; the router relays that answer.
	resp, got := get("/v1/jobs/s0.j-1/a%2F%2Fb")
	if resp.StatusCode != http.StatusMovedPermanently || len(got) != 1 || got[0] != "/v1/jobs/j-1/a//b" {
		t.Errorf("shard redirect: status %d, shard received %q; want 301 relayed after one request", resp.StatusCode, got)
	}
}

// TestTwinAnsweredLocally: a twin-eligible submission never touches a
// shard; its unprefixed job round-trips through the router to the local
// service, result included.
func TestTwinAnsweredLocally(t *testing.T) {
	f := newFakeShard(t)
	rt, _ := newTestRouter(t, []ShardConfig{{Name: "s0", URL: f.srv.URL}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, m := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"sweep","family":"superpage","fast":true,"tier":"twin"}`)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("twin submit status %d: %v", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if strings.Contains(id, ".") {
		t.Fatalf("twin-local job id %q carries a shard prefix", id)
	}
	if f.submits.Load() != 0 {
		t.Fatal("twin-eligible submission touched a shard")
	}
	if got, _ := rt.Registry().Value("fleet.submits_twin_local"); got != 1 {
		t.Fatalf("fleet.submits_twin_local = %d, want 1", got)
	}

	res, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("tier=twin")) {
		t.Fatalf("twin result via router: status %d, %d bytes", res.StatusCode, len(body))
	}

	// An ineligible twin request falls through to a shard (tier cleared
	// by the service; the router routes it like any simulation).
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", `{"kind":"sweep","family":"scheduler","fast":true,"tier":"twin"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ineligible twin submit status %d", resp.StatusCode)
	}
	if f.submits.Load() != 1 {
		t.Fatalf("ineligible twin submission did not route to the shard (submits=%d)", f.submits.Load())
	}
}

// TestRerouteOnShardFailure: a dead shard is excluded at health-poll
// time and its hashes move to survivors; a shard dying mid-request is
// marked unhealthy and the submission retried on another shard.
func TestRerouteOnShardFailure(t *testing.T) {
	alive := newFakeShard(t)
	dead := newFakeShard(t)
	rt, _ := newTestRouter(t, []ShardConfig{
		{Name: "s0", URL: alive.srv.URL},
		{Name: "s1", URL: dead.srv.URL},
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Kill s1 *after* the initial poll marked it healthy: the next
	// submission that rendezvous-picks it must fail over inline.
	dead.srv.Close()
	routed := 0
	for n := 64; n < 96; n++ {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs", simSpec(n))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit n=%d status %d during failover", n, resp.StatusCode)
		}
		if resp.Header.Get("X-Impulse-Shard") == "s0" {
			routed++
		}
	}
	if routed != 32 {
		t.Fatalf("%d/32 submissions landed on the survivor", routed)
	}
	if rerouted, _ := rt.Registry().Value("fleet.submits_rerouted"); rerouted == 0 {
		t.Fatal("no submission recorded as rerouted despite a mid-request shard death")
	}
	if healthy, _ := rt.Registry().Value("fleet.shards_healthy"); healthy != 1 {
		t.Fatalf("fleet.shards_healthy = %d, want 1", healthy)
	}
}

// TestBackpressureRetryAfter: a shard's 429 reaches the client with the
// shard's own Retry-After, which the shard priced from its measured run
// times; the router adds the shard's name and counts the rejection.
func TestBackpressureRetryAfter(t *testing.T) {
	f := newFakeShard(t)
	rt, _ := newTestRouter(t, []ShardConfig{{Name: "s0", URL: f.srv.URL}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	f.reject429.Store(true)
	resp, m := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"sweep","family":"scheduler","fast":true}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want the shard's 7", got)
	}
	if got, ok := m["retry_after_s"].(float64); !ok || got != 7 {
		t.Fatalf("429 body retry_after_s %v, want the shard's 7: %v", m["retry_after_s"], m)
	}
	if m["shard"] != "s0" {
		t.Fatalf("429 body does not name its shard: %v", m)
	}
	if got, _ := rt.Registry().Value("fleet.backpressure_429"); got != 1 {
		t.Fatalf("fleet.backpressure_429 = %d, want 1", got)
	}
	if n, sum := rt.hRetryAfter.Count(), rt.hRetryAfter.Sum(); n != 1 || sum != 7 {
		t.Fatalf("fleet.retry_after_seconds recorded %d values summing to %d, want one 7", n, sum)
	}
}

// TestFleetSingleFlight is the integration headline: N concurrent
// identical submissions through the router against *real* impulsed
// services execute exactly once fleet-wide, and the result fetched via
// the namespaced ID matches a direct fetch from the owning shard.
func TestFleetSingleFlight(t *testing.T) {
	var backends []*service.Service
	var shards []ShardConfig
	for i := 0; i < 3; i++ {
		s := service.New(service.Config{Executors: 1})
		t.Cleanup(s.Close)
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		backends = append(backends, s)
		shards = append(shards, ShardConfig{Name: fmt.Sprintf("s%d", i), URL: srv.URL})
	}
	rt, _ := newTestRouter(t, shards)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	const clients = 24
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(simSpec(64)))
			if err != nil {
				t.Error(err)
				return
			}
			var m map[string]any
			_ = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			ids[i], _ = m["id"].(string)
		}(i)
	}
	wg.Wait()

	// Every client got the same namespaced job.
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] || ids[i] == "" {
			t.Fatalf("client %d got job %q, client 0 got %q", i, ids[i], ids[0])
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0] + "/result?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	viaRouter, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(viaRouter) == 0 {
		t.Fatalf("result via router: status %d, %d bytes", resp.StatusCode, len(viaRouter))
	}

	// Fleet-wide single flight: summed executions across shards == 1.
	var executed uint64
	for _, b := range backends {
		n, _ := b.Registry().Value("service.jobs_executed")
		executed += n
	}
	if executed != 1 {
		t.Fatalf("%d clients caused %d executions fleet-wide, want exactly 1", clients, executed)
	}
}

// TestTwinIneligibleRoutesLikeSimulation: a tier=twin sweep whose
// family has no twin is the plain simulation on every shard, so the
// router must send it where the plain spec lives. Against real services
// it joins the plain job instead of executing again on another shard.
func TestTwinIneligibleRoutesLikeSimulation(t *testing.T) {
	var backends []*service.Service
	var shards []ShardConfig
	for i := 0; i < 2; i++ {
		s := service.New(service.Config{Executors: 1})
		t.Cleanup(s.Close)
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		backends = append(backends, s)
		shards = append(shards, ShardConfig{Name: fmt.Sprintf("s%d", i), URL: srv.URL})
	}
	rt, _ := newTestRouter(t, shards)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, first := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"sweep","family":"ipc","fast":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plain submit status %d: %v", resp.StatusCode, first)
	}
	resp, second := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"sweep","family":"ipc","fast":true,"tier":"twin"}`)
	if resp.StatusCode != http.StatusOK || second["id"] != first["id"] {
		t.Fatalf("twin-tier resubmit: status %d job %v, want 200 and job %v", resp.StatusCode, second["id"], first["id"])
	}
	res, err := http.Get(ts.URL + "/v1/jobs/" + first["id"].(string) + "/result?wait=60s")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result via router: status %d", res.StatusCode)
	}
	var executed, ineligible uint64
	for _, b := range backends {
		n, _ := b.Registry().Value("service.jobs_executed")
		executed += n
		n, _ = b.Registry().Value("service.twin_ineligible")
		ineligible += n
	}
	if executed != 1 {
		t.Errorf("%d executions fleet-wide, want exactly 1", executed)
	}
	if ineligible != 1 {
		t.Errorf("shards counted %d ineligible twin requests, want 1", ineligible)
	}
}

// TestShardsAndReadyz: introspection endpoints report per-shard state,
// and readiness follows the healthy-shard count.
func TestShardsAndReadyz(t *testing.T) {
	f := newFakeShard(t)
	rt, _ := newTestRouter(t, []ShardConfig{{Name: "s0", URL: f.srv.URL}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/fleet/shards")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Shards []struct {
			Name          string `json:"name"`
			Healthy       bool   `json:"healthy"`
			QueueCapacity uint64 `json:"queue_capacity"`
		} `json:"shards"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if len(m.Shards) != 1 || !m.Shards[0].Healthy || m.Shards[0].QueueCapacity != 8 {
		t.Fatalf("/fleet/shards: %+v", m.Shards)
	}

	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with a healthy shard: %d", resp.StatusCode)
	}
	f.srv.Close()
	rt.pollAll()
	if resp, _ := http.Get(ts.URL + "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no healthy shard: %d", resp.StatusCode)
	}
}

// discardWriter is a ResponseWriter that drops the body, so a test can
// count what the router itself allocates per proxied response.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Flush()                      {}

// TestProxyReadAllocs pins the bytes allocated per proxied result read
// (router and shard in one process). The router streams bodies through
// pooled 32 KB buffers; allocating one per read put this read at about
// 44 KB instead of 12 KB and, through the extra collections, showed up
// in request latency.
func TestProxyReadAllocs(t *testing.T) {
	body := strings.Repeat("Table 1: NAS conjugate gradient result row\n", 100)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		io.WriteString(w, body)
	})
	shard := httptest.NewServer(mux)
	defer shard.Close()
	rt, _ := newTestRouter(t, []ShardConfig{{Name: "s0", URL: shard.URL}})
	h := rt.Handler()
	read := func() {
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/s0.j-000001/result", nil))
	}
	for i := 0; i < 20; i++ {
		read()
	}
	const reads = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / reads
	t.Logf("%d bytes allocated per proxied %d-byte result read", perRead, len(body))
	const budget = 24 << 10
	if perRead > budget {
		t.Errorf("proxied read allocates %d bytes, budget %d", perRead, budget)
	}
}
