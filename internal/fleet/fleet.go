// Package fleet is the sharded impulsed frontend: one router over N
// worker impulsed backends, routing every submission by its canonical
// spec hash with rendezvous (highest-random-weight) hashing. Identical
// submissions arriving at any frontend land on the same shard, so the
// shard's single-flight dedup and persistent result store become
// fleet-wide invariants: one execution and one archived blob per unique
// spec, no matter how many clients or frontends ask.
//
// Routing invariants (documented in docs/FLEET.md):
//
//   - Shard choice is a pure function of (spec hash, healthy shard
//     set). No routing table, no coordination: any number of routers in
//     front of the same shard list agree.
//   - When a shard dies, only the hashes it owned move — each to its
//     next-highest-scoring shard (the rendezvous property); the rest of
//     the fleet's placement is untouched, so caches stay warm.
//   - Twin-eligible submissions (tier=twin, family with an analytical
//     twin) never touch a shard: the router's local service answers
//     them in microseconds, and their job IDs carry no shard prefix.
//   - Shard job IDs are namespaced "s3.j-000042": the prefix before the
//     first dot names the owning shard, and every /v1/jobs/{id} route
//     (status, result, views, counters, trace, manifest, cancel, SSE
//     events) proxies to it with the prefix stripped.
//
// Backpressure: a shard answering 429 (its bounded queue is full) stays
// 429 at the router, with the shard's own Retry-After relayed unchanged.
// The shard prices it from the run times it measures (see
// internal/service), so a client backing off under a cold-miss storm
// waits roughly one queue drain of that shard, not a guess.
package fleet

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"impulse/internal/obs"
	"impulse/internal/service"
)

// ShardConfig names one backend impulsed.
type ShardConfig struct {
	// Name is the shard's stable identity (job-ID prefix, metric label).
	Name string
	// URL is the shard's base URL, e.g. "http://127.0.0.1:8091".
	URL string
}

// Config sizes a Router.
type Config struct {
	// Shards is the backend list. At least one required.
	Shards []ShardConfig
	// Local answers twin-eligible submissions and /v1/predict at the
	// router without touching a shard. Required; the caller owns its
	// lifecycle.
	Local *service.Service
	// HealthInterval is the /readyz+/healthz poll period (default 500ms).
	HealthInterval time.Duration
	// Client serves proxied requests. Nil gets a transport tuned for
	// many concurrent same-host requests (the saturation harness drives
	// 10k+ req/s through this client). The router uses a copy that
	// relays a shard's redirect instead of following it.
	Client *http.Client
	// Logger receives routing and health-transition logs; nil discards.
	Logger *slog.Logger
}

// shard is one backend's live state: health from the poller, queue
// geometry from /healthz (shown by /fleet/shards and /metrics), and
// counters.
type shard struct {
	name string
	base *url.URL

	healthy                        atomic.Bool
	queueDepth, queueCap           atomic.Uint64
	executors, running             atomic.Uint64
	routed, proxyErrs, transitions atomic.Uint64
}

// Router is the fleet frontend.
type Router struct {
	shards []*shard
	byName map[string]*shard
	local  *service.Service
	localH http.Handler
	client *http.Client
	probe  *http.Client
	logger *slog.Logger

	reg obs.Registry

	cSubmits, cTwinLocal, cRouted      atomic.Uint64
	cRerouted, cBackpressure, cNoShard atomic.Uint64
	hRetryAfter, hSubmitLat            *obs.Histogram

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a router over cfg.Shards and starts the health poller
// (after one synchronous poll, so a router is born knowing which shards
// are up). Close stops the poller; the Local service is the caller's.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards configured")
	}
	if cfg.Local == nil {
		return nil, fmt.Errorf("fleet: no local service (twin tier needs one)")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	rt := &Router{
		byName: make(map[string]*shard, len(cfg.Shards)),
		local:  cfg.Local,
		localH: cfg.Local.Handler(),
		client: cfg.Client,
		logger: cfg.Logger,
		stop:   make(chan struct{}),
	}
	if rt.logger == nil {
		rt.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if rt.client == nil {
		// The router fans one frontend's load across every shard: idle
		// connections per host must comfortably exceed the per-shard
		// concurrency or the hot path pays a TCP handshake per request.
		rt.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 512,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	// A proxied request goes where the router routed it and nowhere
	// else: a shard's redirect (its mux redirects a path with empty or
	// dot segments to the clean form) goes back to the client as is.
	client := *rt.client
	client.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	rt.client = &client
	rt.probe = &http.Client{Timeout: 2 * time.Second}
	for i, sc := range cfg.Shards {
		name := sc.Name
		if name == "" {
			name = fmt.Sprintf("s%d", i)
		}
		u, err := url.Parse(sc.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fleet: shard %s: bad URL %q", name, sc.URL)
		}
		if _, dup := rt.byName[name]; dup {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", name)
		}
		if strings.ContainsAny(name, "./") {
			return nil, fmt.Errorf("fleet: shard name %q may not contain '.' or '/'", name)
		}
		sh := &shard{name: name, base: u}
		rt.shards = append(rt.shards, sh)
		rt.byName[name] = sh
	}
	rt.registerMetrics()
	rt.pollAll()
	rt.wg.Add(1)
	go rt.healthLoop(cfg.HealthInterval)
	return rt, nil
}

// Close stops the health poller.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

// Registry exposes the router's fleet metrics (mounted at /metrics).
func (rt *Router) Registry() *obs.Registry { return &rt.reg }

func (rt *Router) registerMetrics() {
	u := func(c *atomic.Uint64) func() uint64 { return c.Load }
	rt.reg.CounterFunc("fleet.submits", "Submissions arriving at the router.", u(&rt.cSubmits))
	rt.reg.CounterFunc("fleet.submits_twin_local", "Submissions answered by the router's local twin tier (no shard touched).", u(&rt.cTwinLocal))
	rt.reg.CounterFunc("fleet.submits_routed", "Submissions routed to a shard by rendezvous hash.", u(&rt.cRouted))
	rt.reg.CounterFunc("fleet.submits_rerouted", "Submissions re-picked after the first-choice shard failed mid-request.", u(&rt.cRerouted))
	rt.reg.CounterFunc("fleet.backpressure_429", "Shard 429s relayed to the client with the shard's Retry-After.", u(&rt.cBackpressure))
	rt.reg.CounterFunc("fleet.no_healthy_shard", "Submissions failed 503 because no shard was healthy.", u(&rt.cNoShard))
	rt.reg.GaugeFunc("fleet.shards", "Configured shard count.", func() uint64 { return uint64(len(rt.shards)) })
	rt.reg.GaugeFunc("fleet.shards_healthy", "Shards currently passing /readyz.", func() uint64 {
		var n uint64
		for _, sh := range rt.shards {
			if sh.healthy.Load() {
				n++
			}
		}
		return n
	})
	rt.hRetryAfter = rt.reg.Histogram("fleet.retry_after_seconds", "Retry-After seconds the shards priced on relayed 429s.")
	rt.hSubmitLat = rt.reg.Histogram("fleet.submit_duration_us", "Microseconds spent serving routed submissions (proxy round trip included).")
	for _, sh := range rt.shards {
		sh := sh
		rt.reg.LabeledGaugeFunc("fleet.shard_healthy", "1 when the shard passes /readyz.", "shard", sh.name, func() uint64 {
			if sh.healthy.Load() {
				return 1
			}
			return 0
		})
		rt.reg.LabeledCounterFunc("fleet.shard_requests", "Requests proxied to the shard (submissions plus job lookups).", "shard", sh.name, sh.routed.Load)
		rt.reg.LabeledCounterFunc("fleet.shard_proxy_errors", "Proxy round trips to the shard that failed at the transport.", "shard", sh.name, sh.proxyErrs.Load)
		rt.reg.LabeledGaugeFunc("fleet.shard_queue_depth", "The shard's queue depth from its last /healthz poll.", "shard", sh.name, sh.queueDepth.Load)
	}
}

// score is the rendezvous weight of hash on sh: fnv64a(hash|name).
func score(hash, name string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, hash)
	h.Write([]byte{'|'})
	io.WriteString(h, name)
	return h.Sum64()
}

// pick returns the healthy shard with the highest rendezvous score for
// hash, skipping excluded ones. Nil when none qualify.
func (rt *Router) pick(hash string, exclude map[*shard]bool) *shard {
	var best *shard
	var bestScore uint64
	for _, sh := range rt.shards {
		if !sh.healthy.Load() || exclude[sh] {
			continue
		}
		if sc := score(hash, sh.name); best == nil || sc > bestScore ||
			(sc == bestScore && sh.name < best.name) {
			best, bestScore = sh, sc
		}
	}
	return best
}

// Owner reports which shard hash currently routes to ("" when none is
// healthy) — the smoke test uses it to find and SIGTERM a result's home.
func (rt *Router) Owner(hash string) string {
	if sh := rt.pick(hash, nil); sh != nil {
		return sh.name
	}
	return ""
}

// healthLoop polls every shard until Close.
func (rt *Router) healthLoop(interval time.Duration) {
	defer rt.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.pollAll()
		}
	}
}

func (rt *Router) pollAll() {
	var wg sync.WaitGroup
	for _, sh := range rt.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			rt.pollShard(sh)
		}(sh)
	}
	wg.Wait()
}

// pollShard probes /readyz for health and /healthz for queue geometry
// (depth, capacity, running, executors).
func (rt *Router) pollShard(sh *shard) {
	ready := false
	if resp, err := rt.probe.Get(sh.base.String() + "/readyz"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ready = resp.StatusCode == http.StatusOK
	}
	rt.setHealthy(sh, ready)
	if !ready {
		return
	}
	resp, err := rt.probe.Get(sh.base.String() + "/healthz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var hz struct {
		QueueDepth    uint64 `json:"queue_depth"`
		QueueCapacity uint64 `json:"queue_capacity"`
		Running       uint64 `json:"running"`
		Executors     uint64 `json:"executors"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&hz) == nil {
		sh.queueDepth.Store(hz.QueueDepth)
		sh.queueCap.Store(hz.QueueCapacity)
		sh.running.Store(hz.Running)
		sh.executors.Store(hz.Executors)
	}
}

func (rt *Router) setHealthy(sh *shard, ok bool) {
	if sh.healthy.Swap(ok) != ok {
		sh.transitions.Add(1)
		rt.logger.Info("shard health changed", "shard", sh.name, "healthy", ok)
	}
}

// ownerName splits a namespaced job ID "s3.j-000042" into its shard and
// shard-local halves. ok is false for unprefixed (router-local) IDs and
// for an empty local half, which names no job on the shard.
func (rt *Router) ownerName(id string) (sh *shard, local string, ok bool) {
	i := strings.IndexByte(id, '.')
	if i <= 0 || i == len(id)-1 {
		return nil, "", false
	}
	sh = rt.byName[id[:i]]
	if sh == nil {
		return nil, "", false
	}
	return sh, id[i+1:], true
}
