package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"impulse/internal/obs"
	"impulse/internal/service"
)

// Handler returns the router's HTTP frontend. It speaks the same API as
// a single impulsed (clients need not know they talk to a fleet), plus
// fleet introspection:
//
//	POST /v1/jobs        route by spec hash (twin-eligible answered locally)
//	POST /v1/predict     local analytical twin, stateless
//	GET  /v1/jobs        merged job list across healthy shards + local
//	     /v1/jobs/{id}/* proxied to the owning shard by ID prefix
//	GET  /fleet/shards   per-shard health, queue geometry, routing counters
//	GET  /healthz        router liveness + healthy-shard count
//	GET  /readyz         ready iff at least one shard is
//	GET  /metrics        fleet metrics (Prometheus text exposition)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("POST /v1/predict", rt.localH.ServeHTTP)
	mux.HandleFunc("GET /v1/jobs", rt.handleList)
	mux.HandleFunc("/v1/jobs/", rt.handleJob) // any method, any subpath
	mux.HandleFunc("GET /fleet/shards", rt.handleShards)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", obs.MetricsHandler(&rt.reg).ServeHTTP)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit parses and hashes the spec, answers twin-eligible
// submissions from the local service, and routes everything else to its
// rendezvous shard. A shard that dies mid-request is marked unhealthy
// and the submission re-picked among the survivors — the same placement
// every other router would now compute.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.cSubmits.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	norm, err := service.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Route on the spec the shard will hash: a twin request for a family
	// without a twin is the plain simulation. The body goes on
	// unchanged, so the shard still counts the twin request.
	norm, twinAnswers := service.ResolveTier(norm)
	if twinAnswers {
		// The twin tier is cheaper than the proxy round trip itself:
		// answer at the router. Local job IDs carry no shard prefix,
		// so later lookups route back here too.
		rt.cTwinLocal.Add(1)
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
		rt.localH.ServeHTTP(w, r2)
		return
	}
	rt.observeCost(rt.estimateCostUS(norm))

	hash := norm.Hash()
	exclude := map[*shard]bool{}
	for range rt.shards {
		sh := rt.pick(hash, exclude)
		if sh == nil {
			break
		}
		resp, err := rt.forward(sh, r, "/v1/jobs", bytes.NewReader(body), int64(len(body)))
		if err != nil {
			sh.proxyErrs.Add(1)
			rt.setHealthy(sh, false)
			exclude[sh] = true
			rt.cRerouted.Add(1)
			rt.logger.Warn("shard failed mid-submit; rerouting", "shard", sh.name, "err", err)
			continue
		}
		rt.cRouted.Add(1)
		sh.routed.Add(1)
		rt.relaySubmit(w, resp, sh)
		rt.hSubmitLat.Observe(uint64(time.Since(start).Microseconds()))
		return
	}
	rt.cNoShard.Add(1)
	w.Header().Set("Retry-After", "5")
	writeError(w, http.StatusServiceUnavailable, "no healthy shard (of %d) to route to", len(rt.shards))
}

// forward proxies one request body to sh at path, preserving the query.
func (rt *Router) forward(sh *shard, r *http.Request, path string, body io.Reader, length int64) (*http.Response, error) {
	u := *sh.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u.String(), body)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	if length >= 0 {
		req.ContentLength = length
	}
	return rt.client.Do(req)
}

// relaySubmit rewrites a shard's submission response for the fleet:
// job IDs gain the shard prefix, 429s gain the cost-aware Retry-After,
// and every response names its shard in X-Impulse-Shard.
func (rt *Router) relaySubmit(w http.ResponseWriter, resp *http.Response, sh *shard) {
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadGateway, "reading shard %s response: %v", sh.name, err)
		return
	}
	w.Header().Set("X-Impulse-Shard", sh.name)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// Satellite of the twin tier: the shard's constant Retry-After
		// becomes an admission hint derived from its queue and the cost
		// EWMA (heavy sweeps quote honest waits, not "1").
		rt.cBackpressure.Add(1)
		sh.queueDepth.Store(sh.queueCap.Load()) // it just told us it is full
		retry := rt.retryAfterSeconds(sh)
		rt.hRetryAfter.Observe(uint64(retry))
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		var m map[string]any
		if json.Unmarshal(payload, &m) == nil && m != nil {
			m["retry_after_s"] = retry
			m["shard"] = sh.name
			writeJSON(w, resp.StatusCode, m)
			return
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(payload)
		return
	}
	var m map[string]any
	if json.Unmarshal(payload, &m) == nil && m != nil {
		if id, ok := m["id"].(string); ok && id != "" {
			m["id"] = sh.name + "." + id
		}
		m["shard"] = sh.name
		writeJSON(w, resp.StatusCode, m)
		return
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(payload)
}

// handleJob routes /v1/jobs/{id}/... by the ID's shard prefix: a
// namespaced ID streams through to its owner (SSE included); an
// unprefixed ID is a router-local (twin) job.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id := rest
	if i := strings.IndexByte(id, '/'); i >= 0 {
		id = id[:i]
	}
	sh, local, ok := rt.ownerName(id)
	if !ok {
		rt.localH.ServeHTTP(w, r)
		return
	}
	path := "/v1/jobs/" + local + strings.TrimPrefix(rest, id)
	sh.routed.Add(1)
	rt.proxyStream(w, r, sh, path)
}

// proxyBufs recycles proxyStream's copy buffers. A fresh 32 KB buffer
// per proxied read was most of the router's allocation, and the GC
// pressure it caused showed up in request latency. io.Copy is no
// substitute: for a body with a Content-Length, net/http copies through
// TCPConn.ReadFrom, which allocates its own 32 KB buffer.
var proxyBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// proxyStream forwards r to sh at path and streams the response back,
// flushing as bytes arrive so SSE event streams pass through live.
func (rt *Router) proxyStream(w http.ResponseWriter, r *http.Request, sh *shard, path string) {
	var body io.Reader
	length := int64(-1)
	if r.Body != nil && r.ContentLength != 0 {
		body = r.Body
		length = r.ContentLength
	}
	resp, err := rt.forward(sh, r, path, body, length)
	if err != nil {
		sh.proxyErrs.Add(1)
		rt.setHealthy(sh, false)
		writeError(w, http.StatusBadGateway, "shard %s unreachable: %v", sh.name, err)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Impulse-Shard", sh.name)
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	streaming := strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream")
	bp := proxyBufs.Get().(*[]byte)
	defer proxyBufs.Put(bp)
	buf := *bp
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if streaming && fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleList merges every healthy shard's job list (IDs namespaced)
// with the router-local jobs.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := []any{}
	for _, st := range rt.local.Jobs() {
		jobs = append(jobs, st)
	}
	for _, sh := range rt.shards {
		if !sh.healthy.Load() {
			continue
		}
		resp, err := rt.forward(sh, r, "/v1/jobs", nil, 0)
		if err != nil {
			continue
		}
		var m struct {
			Jobs []map[string]any `json:"jobs"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&m)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, j := range m.Jobs {
			if id, ok := j["id"].(string); ok {
				j["id"] = sh.name + "." + id
			}
			j["shard"] = sh.name
			jobs = append(jobs, j)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

// handleShards is the fleet introspection endpoint.
func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	type view struct {
		Name          string `json:"name"`
		URL           string `json:"url"`
		Healthy       bool   `json:"healthy"`
		QueueDepth    uint64 `json:"queue_depth"`
		QueueCapacity uint64 `json:"queue_capacity"`
		Running       uint64 `json:"running"`
		Executors     uint64 `json:"executors"`
		Requests      uint64 `json:"requests"`
		ProxyErrors   uint64 `json:"proxy_errors"`
		Transitions   uint64 `json:"health_transitions"`
	}
	out := make([]view, 0, len(rt.shards))
	for _, sh := range rt.shards {
		out = append(out, view{
			Name: sh.name, URL: sh.base.String(), Healthy: sh.healthy.Load(),
			QueueDepth: sh.queueDepth.Load(), QueueCapacity: sh.queueCap.Load(),
			Running: sh.running.Load(), Executors: sh.executors.Load(),
			Requests: sh.routed.Load(), ProxyErrors: sh.proxyErrs.Load(),
			Transitions: sh.transitions.Load(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"shards": out})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var healthy int
	for _, sh := range rt.shards {
		if sh.healthy.Load() {
			healthy++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "role": "fleet-router",
		"shards": len(rt.shards), "shards_healthy": healthy,
	})
}

// handleReadyz: a router with at least one healthy shard can route.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var healthy int
	for _, sh := range rt.shards {
		if sh.healthy.Load() {
			healthy++
		}
	}
	if healthy == 0 {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "not ready", "shards_healthy": 0})
		return
	}
	writeJSON(w, http.StatusOK,
		map[string]any{"status": "ready", "shards_healthy": healthy})
}
