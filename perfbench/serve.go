package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"impulse/internal/fleet"
	"impulse/internal/service"
	"impulse/internal/workloads"
)

// Fixed rates and shape of the serve-fleet open loop.
const (
	lightRPS   = 1000.0
	heavyRPS   = 3000.0
	conns      = 2               // client connections the generator uses
	coldEvery  = 2 * time.Second // one cold sim job per interval
	ladderStep = 1.05            // rate ratio between ladder steps
	shardCount = 2
	warmSpecs  = 32 // below the shard result cache's 128 entries
)

// rig is the in-process fleet: a router over shardCount shards, each
// with its own fresh store directory, plus the router's local service
// that answers the analytical-twin tier.
type rig struct {
	shards  []*service.Service
	local   *service.Service
	router  *fleet.Router
	servers []*http.Server
	serving sync.WaitGroup // one Serve goroutine per server
	base    string         // router URL
	client  *http.Client   // the generator's conns connections
	tr      atomic.Pointer[tracer]
	warm    []warmJob
	predict map[string][]byte // family -> expected /v1/predict body tail
	colds   int               // cold jobs submitted so far; each spec is new
}

// warmJob is one warmed spec and the bytes each view must return.
type warmJob struct {
	spec  []byte
	id    string            // fleet job ID, "s1.j-000004"
	views map[string][]byte // "" (the spec's own format), "json", "columnar"
}

// boot starts the rig. With traced set, the router, shard handlers and
// the router's transport are wrapped to record spans whenever rig.tr is
// non-nil; untraced runs install no wrapper at all.
func boot(dir string, traced bool) (*rig, error) {
	g := &rig{}
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		g.servers = append(g.servers, srv)
		g.serving.Add(1)
		go func() {
			defer g.serving.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed once close runs
		}()
		return "http://" + ln.Addr().String(), nil
	}
	var shards []fleet.ShardConfig
	for i := 0; i < shardCount; i++ {
		name := fmt.Sprintf("s%d", i)
		svc := service.New(service.Config{ArchiveDir: filepath.Join(dir, name)})
		g.shards = append(g.shards, svc)
		h := svc.Handler()
		if traced {
			h = g.shardSpans(name, h)
		}
		url, err := serve(h)
		if err != nil {
			g.close()
			return nil, err
		}
		shards = append(shards, fleet.ShardConfig{Name: name, URL: url})
	}
	g.local = service.New(service.Config{ArchiveDir: filepath.Join(dir, "local")})
	var hop http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 64}
	if traced {
		hop = hopSpans{g: g, next: hop}
	}
	rt, err := fleet.New(fleet.Config{Shards: shards, Local: g.local, Client: &http.Client{Transport: hop}})
	if err != nil {
		g.close()
		return nil, err
	}
	g.router = rt
	h := rt.Handler()
	if traced {
		h = g.routerSpans(h)
	}
	if g.base, err = serve(h); err != nil {
		g.close()
		return nil, err
	}
	g.client = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	return g, nil
}

func (g *rig) close() {
	for _, srv := range g.servers {
		srv.Close()
	}
	g.serving.Wait()
	if g.router != nil {
		g.router.Close()
	}
	for _, s := range append(g.shards, g.local) {
		if s != nil {
			s.Close()
		}
	}
	if g.client != nil {
		g.client.CloseIdleConnections()
	}
}

// warmSpecList generates the seeded warm set: six small Table 1 grids
// (the seed moves each dimension within its band) and five small Table
// 2 grids, each in text, json and columnar format.
func warmSpecList(seed int64) []service.Spec {
	rng := rand.New(rand.NewSource(seed))
	var geoms []service.Spec
	for i := 0; i < 6; i++ {
		geoms = append(geoms, service.Spec{Kind: "table1", N: 200 + 100*i + rng.Intn(100), CGIts: 1 + i%2})
	}
	for _, g := range [][2]int{{32, 16}, {32, 32}, {48, 16}, {64, 16}, {64, 32}} {
		geoms = append(geoms, service.Spec{Kind: "table2", N: g[0], Tile: g[1]})
	}
	var specs []service.Spec
	for _, f := range []string{"text", "json", "columnar"} {
		for _, s := range geoms {
			s.Format = f
			specs = append(specs, s)
		}
	}
	return specs[:warmSpecs]
}

// setupFleet boots the rig and warms it: every warm spec submitted
// through the router, waited for, and each of its views fetched once;
// those bytes are what the measured reads must return.
func setupFleet(dir string, seed int64, traced bool) (*rig, error) {
	g, err := boot(dir, traced)
	if err != nil {
		return nil, err
	}
	specs := warmSpecList(seed)
	g.warm = make([]warmJob, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s service.Spec) {
			defer wg.Done()
			errs[i] = g.warmOne(&g.warm[i], s)
		}(i, s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		g.close()
		return nil, fmt.Errorf("warming: %w", err)
	}
	g.predict = map[string][]byte{}
	for _, fam := range twinFamilies {
		body, code, err := g.do("POST", "/v1/predict", []byte(`{"family":"`+fam+`","fast":true}`))
		if err != nil || code != http.StatusOK {
			g.close()
			return nil, fmt.Errorf("warming predict %s: %d %v", fam, code, err)
		}
		g.predict[fam] = predictTail(body)
	}
	return g, nil
}

func (g *rig) warmOne(w *warmJob, s service.Spec) error {
	spec, err := json.Marshal(s)
	if err != nil {
		return err
	}
	w.spec = spec
	body, code, err := g.do("POST", "/v1/jobs", spec)
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("submit %s: %d %v %s", spec, code, err, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		return fmt.Errorf("submit %s: no job id in %s", spec, body)
	}
	w.id = st.ID
	w.views = map[string][]byte{}
	for _, view := range []string{"", "json", "columnar"} {
		q := "?wait=120s"
		if view != "" {
			q += "&view=" + view
		}
		body, code, err := g.do("GET", "/v1/jobs/"+w.id+"/result"+q, nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("result %s view %q: %d %v %s", w.id, view, code, err, body)
		}
		w.views[view] = body
	}
	return nil
}

// predictTail drops the per-call elapsed_us field from a /v1/predict
// response: the rest is deterministic and compared byte for byte.
func predictTail(body []byte) []byte {
	if i := bytes.Index(body, []byte(`"error_bound"`)); i >= 0 {
		return body[i:]
	}
	return body
}

// do sends one request through the generator's client and reads the
// whole body.
func (g *rig) do(method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// mixRequest is one planned request of the measured mix.
type mixRequest struct {
	kind   string // "result", "json", "columnar", "submit", "predict"
	job    int    // warm job index
	family string // predict family
}

// mixPlan draws the mix from the seed: 50% result reads, 15% json
// views, 10% columnar views, 15% repeat submits of warm specs, 10%
// analytical-twin predictions.
func mixPlan(seed int64, n, jobs int) []mixRequest {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	plan := make([]mixRequest, n)
	for i := range plan {
		p := rng.Intn(100)
		m := mixRequest{job: rng.Intn(jobs), family: twinFamilies[rng.Intn(len(twinFamilies))]}
		switch {
		case p < 50:
			m.kind = "result"
		case p < 65:
			m.kind = "json"
		case p < 75:
			m.kind = "columnar"
		case p < 90:
			m.kind = "submit"
		default:
			m.kind = "predict"
		}
		plan[i] = m
	}
	return plan
}

// send performs planned request k and checks its answer: a read must
// return the bytes warming saw, a repeat submit must answer 200 with
// the warm job's ID, a prediction the warm prediction. The request ID
// travels in the query string, the only part the router forwards.
func (g *rig) send(k int, m mixRequest) bool {
	id := "bid=" + strconv.Itoa(k)
	w := &g.warm[m.job]
	var body []byte
	var code int
	var err error
	switch m.kind {
	case "result":
		body, code, err = g.do("GET", "/v1/jobs/"+w.id+"/result?"+id, nil)
		return err == nil && code == http.StatusOK && bytes.Equal(body, w.views[""])
	case "json", "columnar":
		body, code, err = g.do("GET", "/v1/jobs/"+w.id+"/result?view="+m.kind+"&"+id, nil)
		return err == nil && code == http.StatusOK && bytes.Equal(body, w.views[m.kind])
	case "submit":
		body, code, err = g.do("POST", "/v1/jobs?"+id, w.spec)
		return err == nil && code == http.StatusOK && bytes.Contains(body, []byte(`"`+w.id+`"`))
	default:
		body, code, err = g.do("POST", "/v1/predict?"+id, []byte(`{"family":"`+m.family+`","fast":true}`))
		return err == nil && code == http.StatusOK && bytes.Equal(predictTail(body), g.predict[m.family])
	}
}

// coldJob is one cold sim submission of the measured phase.
type coldJob struct {
	spec    service.Spec
	due     time.Time
	fetched time.Time
	id      string
	output  []byte
	err     error
}

// coldSpec is cold job j: a single-configuration CG run no other job
// shares, so it executes on a shard and writes a new store entry. Mode
// and prefetch policy cycle in a fixed order; the seed shifts the
// matrix dimension.
func coldSpec(seed int64, j int) service.Spec {
	modes := []string{"conventional", "sg", "recolor"}
	pfs := []string{"none", "mc", "l1", "both"}
	n := 1800 + int(uint64(seed)%97) + 4*j
	return service.Spec{Kind: "sim", Workload: "cg", N: n, CGIts: 2, Mode: modes[j%3], Prefetch: pfs[j%4]}
}

// runCold submits the cold job at its due time through the router and
// polls its result every 5 ms until it is served.
func (g *rig) runCold(c *coldJob) {
	if d := time.Until(c.due); d > 0 {
		time.Sleep(d)
	}
	spec, err := json.Marshal(c.spec)
	if err != nil {
		c.err = err
		return
	}
	body, code, err := g.do("POST", "/v1/jobs", spec)
	if err != nil || code != http.StatusAccepted {
		c.err = fmt.Errorf("cold submit: %d %v %s", code, err, body)
		return
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		c.err = fmt.Errorf("cold submit: no job id in %s", body)
		return
	}
	c.id = st.ID
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		body, code, err := g.do("GET", "/v1/jobs/"+c.id+"/result", nil)
		switch {
		case err != nil:
			c.err = err
			return
		case code == http.StatusOK:
			c.fetched, c.output = time.Now(), body
			return
		case code != http.StatusAccepted:
			c.err = fmt.Errorf("cold result %s: %d %s", c.id, code, body)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.err = fmt.Errorf("cold result %s: not done within 60s", c.id)
}

// checkCold verifies a cold result against the host reference: the
// zeta the simulated CG printed must be the host's.
func checkCold(c *coldJob) error {
	if c.err != nil {
		return c.err
	}
	par := workloads.CGParams{N: c.spec.N, Nonzer: 7, Niter: 1, CGIts: c.spec.CGIts, Shift: 20, RCond: 0.1}
	zeta, _ := workloads.RefCG(workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift), par)
	want := fmt.Sprintf("zeta=%.13f ", zeta)
	if !bytes.Contains(c.output, []byte(want)) {
		return fmt.Errorf("cold %s (n=%d %s/%s): output lacks host reference %q", c.id, c.spec.N, c.spec.Mode, c.spec.Prefetch, strings.TrimSpace(want))
	}
	return nil
}

func serveSetupOnly(o options) error {
	g, err := setupFleet(o.out, o.seed, false)
	if err != nil {
		return err
	}
	g.close()
	return nil
}

// counter sums a service counter over the shards.
func (g *rig) counter(name string) uint64 {
	var n uint64
	for _, s := range g.shards {
		v, _ := s.Registry().Value(name)
		n += v
	}
	return n
}

// phase is one measured phase's raw results.
type phase struct {
	light, heavy           stepStats
	lightS, heavyS         []sample
	lightFirst, heavyFirst int // request index of each step's first request
	ladder                 []stepStats
	hold                   stepStats // heavy rate after the ladder, to the phase's end
	cold                   []*coldJob
	warmSubmits            int
	sent                   int
}

// measure runs the measured phase: a light step, a heavy step, a rate
// ladder upward from heavy in 5% steps to the first step that misses
// the latency limit, and the heavy rate again for whatever time is
// left, with cold jobs due every coldEvery throughout. The phase always
// lasts secs, so every run has the same cold jobs in the same order.
func (g *rig) measure(seed int64, secs float64) *phase {
	stepDur := time.Duration(secs * 0.2 * float64(time.Second))
	ladderDur := time.Second
	if secs < 10 {
		ladderDur = time.Duration(secs / 10 * float64(time.Second))
	}
	plan := mixPlan(seed, int((lightRPS+heavyRPS)*2*secs)+1000, len(g.warm))
	p := &phase{}
	var coldWG sync.WaitGroup
	stop := make(chan struct{})
	t0 := time.Now()
	end := t0.Add(time.Duration(secs * float64(time.Second)))
	coldBase := g.colds
	coldWG.Add(1)
	go func() {
		defer coldWG.Done()
		for j := 0; ; j++ {
			due := t0.Add(time.Duration(j)*coldEvery + coldEvery/2)
			if due.After(end) {
				return
			}
			c := &coldJob{spec: coldSpec(seed, coldBase+j), due: due}
			p.cold = append(p.cold, c)
			coldWG.Add(1)
			go func() { defer coldWG.Done(); g.runCold(c) }()
			select {
			case <-stop:
				return
			case <-time.After(time.Until(due)):
			}
		}
	}()

	var submits atomic.Int64
	step := func(rate float64, d time.Duration) ([]sample, stepStats) {
		first := p.sent
		ss := openLoop(rate, d, conns, first, func(k int) bool {
			m := plan[k%len(plan)]
			if m.kind == "submit" {
				submits.Add(1)
			}
			return g.send(k, m)
		})
		p.sent += len(ss)
		return ss, summarize(rate, ss)
	}
	p.lightFirst = p.sent
	p.lightS, p.light = step(lightRPS, stepDur)
	p.heavyFirst = p.sent
	p.heavyS, p.heavy = step(heavyRPS, stepDur)
	rate := heavyRPS
	for time.Until(end) >= ladderDur {
		rate *= ladderStep
		_, st := step(rate, ladderDur)
		p.ladder = append(p.ladder, st)
		if !st.passes() {
			break
		}
	}
	if left := time.Until(end); left > 0 {
		_, p.hold = step(heavyRPS, left)
	}
	close(stop)
	coldWG.Wait()
	g.colds += len(p.cold)
	p.warmSubmits = int(submits.Load())
	return p
}

// maxRPS is the highest offered rate whose step passed, scanning light,
// heavy and the ladder in order and stopping at the first ladder
// failure.
func (p *phase) maxRPS() (float64, bool) {
	best, capped := 0.0, true
	for _, st := range append([]stepStats{p.light, p.heavy}, p.ladder...) {
		if st.passes() && st.rate > best {
			best = st.rate
		}
		if !st.passes() && st.rate > heavyRPS {
			capped = false
		}
	}
	return best, capped
}

// runServeFleet is the serve-fleet workload.
func runServeFleet(o options, r *report) error {
	setups, err := setupSamples(o, 2)
	if err != nil {
		return err
	}
	t0 := time.Now()
	g, err := setupFleet(o.out, o.seed, o.trace)
	if err != nil {
		return err
	}
	defer g.close()
	setups = append(setups, time.Since(t0).Seconds())
	r.set("setup_s", median(setups))
	r.printf("workload serve-fleet seed %d: %d shards, %d warm specs, %d connections", o.seed, shardCount, len(g.warm), conns)
	r.printf("setup_s samples %v", setups)
	if o.trace {
		return traceFleet(o, r, g)
	}

	p := g.measure(o.seed, float64(o.seconds))
	r.set("live_heap_mb", retainedHeapMB())
	if err := fleetReport(r, g, p); err != nil {
		return err
	}
	checkExecuted(r, g)
	return nil
}

// checkExecuted holds the shards to one execution per distinct spec:
// every warm spec and every cold spec once, nothing more.
func checkExecuted(r *report, g *rig) {
	if executed, want := g.counter("service.jobs_executed"), uint64(len(g.warm)+g.colds); executed != want {
		r.errs = append(r.errs, fmt.Sprintf("shards executed %d jobs, want %d (warm + cold): wasted or lost work", executed, want))
	}
}

// fleetReport does the failure accounting of a measured phase, checks
// every cold result, and reports the serve-fleet metrics.
func fleetReport(r *report, g *rig, p *phase) error {
	for _, ss := range [][]sample{p.lightS, p.heavyS} {
		for _, s := range ss {
			r.attempted++
			if !s.ok {
				r.fail("request due %s failed", s.due.Format("15:04:05.000"))
			}
		}
	}
	for _, st := range append(p.ladder, p.hold) {
		r.attempted += st.n
		r.failed += st.failed // failures past the knee are load, not wrong answers
	}
	var colds []float64
	for _, c := range p.cold {
		r.attempted++
		if err := checkCold(c); err != nil {
			r.fail("%v", err)
			continue
		}
		colds = append(colds, c.fetched.Sub(c.due).Seconds())
	}
	r.printf("p50_ms.light %.4f ms (n=%d)", p.light.p50, p.light.n)
	r.printf("p99_ms.light %.4f ms (n=%d)", p.light.p99, p.light.n)
	r.printf("p50_ms.heavy %.4f ms (n=%d)", p.heavy.p50, p.heavy.n)
	r.printf("p99_ms.heavy %.4f ms (n=%d)", p.heavy.p99, p.heavy.n)
	max, capped := p.maxRPS()
	note := ""
	if capped {
		note = ", ladder ended before any step failed"
	}
	r.printf("max_rps %.0f req/s (%d ladder steps of %.0f%%%s)", max, len(p.ladder), (ladderStep-1)*100, note)
	r.printf("cold_p50_s %.4f s (n=%d) samples %.3f", median(colds), len(colds), colds)
	r.printf("step light: %v", p.light)
	r.printf("step heavy: %v", p.heavy)
	for _, st := range p.ladder {
		r.printf("step ladder: %v", st)
	}
	if p.hold.n > 0 {
		r.printf("step hold: %v", p.hold)
	}
	if len(colds) > 0 {
		r.set("wall_s", median(colds))
	}
	return nil
}
