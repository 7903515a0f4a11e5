package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"impulse/internal/service"
)

// requestID is the benchmark's request ID, carried in the query string:
// the router forwards the query but no custom header.
func requestID(r *http.Request) string { return r.URL.Query().Get("bid") }

// routerSpans wraps the router's handler: one span per request.
func (g *rig) routerSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr, id := g.tr.Load(), requestID(r)
		if tr == nil || id == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.add(span{name: "router", track: "router", id: id, start: start, end: time.Now()})
	})
}

// shardSpans wraps a shard's service handler: one span per request,
// named by endpoint.
func (g *rig) shardSpans(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr, id := g.tr.Load(), requestID(r)
		if tr == nil || id == "" {
			h.ServeHTTP(w, r)
			return
		}
		op := "shard.other"
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			op = "shard.submit"
		case strings.HasSuffix(r.URL.Path, "/result"):
			op = "shard.result"
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.add(span{name: op, track: "shard " + name, id: id, start: start, end: time.Now()})
	})
}

// hopSpans wraps the router's transport (fleet.Config.Client): the hop
// runs from the proxied request's send until its response body has been
// read to the end or closed.
type hopSpans struct {
	g    *rig
	next http.RoundTripper
}

func (t hopSpans) RoundTrip(req *http.Request) (*http.Response, error) {
	tr, id := t.g.tr.Load(), requestID(req)
	if tr == nil || id == "" {
		return t.next.RoundTrip(req)
	}
	start := time.Now()
	done := func() {
		tr.add(span{name: "fleet.hop", track: "hop " + req.URL.Host, id: id, start: start, end: time.Now()})
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// shardJob finds a fleet job ID's job on its shard ("s1.j-000004").
func (g *rig) shardJob(id string) (*service.Job, bool) {
	name, local, ok := strings.Cut(id, ".")
	if !ok {
		return nil, false
	}
	for i, s := range g.shards {
		if fmt.Sprintf("s%d", i) == name {
			return s.Get(local)
		}
	}
	return nil, false
}

// traceFleet is serve-fleet's traced run: an untraced reference phase
// of half the length (for the tracing overhead), the traced phase, then
// direct probes of the layers the mix exercises.
func traceFleet(o options, r *report, g *rig) error {
	secs := float64(o.seconds)
	ref := g.measure(o.seed, secs/2)
	if err := fleetReport(r, g, ref); err != nil {
		return err
	}
	tr := &tracer{}
	hitsBefore := g.counter("service.jobs_cache_hits") + g.counter("service.jobs_deduped")
	g.tr.Store(tr)
	p := g.measure(o.seed, secs)
	g.tr.Store(nil)
	hits := g.counter("service.jobs_cache_hits") + g.counter("service.jobs_deduped") - hitsBefore
	if err := fleetReport(r, g, p); err != nil {
		return err
	}
	checkExecuted(r, g)

	if p.warmSubmits > 0 {
		r.set("service.hit_ratio", float64(hits)/float64(p.warmSubmits))
	}
	r.set("service.executed", float64(g.counter("service.jobs_executed")))
	var proxyErrs uint64
	for i := range g.shards {
		v, _ := g.router.Registry().LabeledValue("fleet.shard_proxy_errors", fmt.Sprintf("s%d", i))
		proxyErrs += v
	}
	rerouted, _ := g.router.Registry().Value("fleet.submits_rerouted")
	r.set("fleet.proxy_errors", float64(proxyErrs))
	r.set("fleet.rerouted", float64(rerouted))

	var lags []float64
	for _, s := range append(append([]sample(nil), p.lightS...), p.heavyS...) {
		lags = append(lags, ms(s.lag()))
	}
	r.set("loadgen.lag_p50_ms", quantile(lags, 0.5))
	r.set("loadgen.lag_p99_ms", quantile(lags, 0.99))
	r.set("loadgen.achieved_rps.light", p.light.achieved)
	r.set("loadgen.achieved_rps.heavy", p.heavy.achieved)
	r.set("trace.overhead_pct", 100*(p.heavy.p50-ref.heavy.p50)/ref.heavy.p50)

	spans := tr.all()
	requestLayers(r, p, spans)
	jobLayers(r, g, p)

	if err := probeSim(r, tr); err != nil {
		return err
	}
	if err := probeTwin(r, tr, 200); err != nil {
		return err
	}
	var blobs [][]byte
	for _, w := range g.warm {
		blobs = append(blobs, w.views["columnar"])
	}
	if err := probeColres(r, tr, blobs, 10); err != nil {
		return err
	}
	if err := probeStore(r, tr, filepath.Join(o.out, "store-probe"), blobs, 1); err != nil {
		return err
	}
	return writeTrace(o, r, tr)
}

// requestLayers splits the traced requests across router, hop and
// shard, and closes the ledger over the light and heavy steps.
func requestLayers(r *report, p *phase, spans []span) {
	type layers struct{ router, hop, shard *span }
	byID := map[string]*layers{}
	var submit, result []float64
	for i := range spans {
		s := &spans[i]
		l := byID[s.id]
		if l == nil {
			l = &layers{}
			byID[s.id] = l
		}
		switch {
		case s.name == "router":
			l.router = s
		case s.name == "fleet.hop":
			l.hop = s
		case strings.HasPrefix(s.name, "shard."):
			l.shard = s
			switch s.name {
			case "shard.submit":
				submit = append(submit, us(s.dur()))
			case "shard.result":
				result = append(result, us(s.dur()))
			}
		}
	}
	var routerSelf, hopSelf []float64
	for _, l := range byID {
		if l.router != nil && l.hop != nil {
			routerSelf = append(routerSelf, us(l.router.dur()-l.hop.dur()))
		}
		if l.hop != nil && l.shard != nil {
			hopSelf = append(hopSelf, us(l.hop.dur()-l.shard.dur()))
		}
	}
	r.set("fleet.router_us", median(routerSelf))
	r.set("fleet.hop_us", median(hopSelf))
	r.set("service.submit_us", median(submit))
	r.set("service.result_us", median(result))

	// Ledger: of each request's time from its due time, the generator's
	// lag and the router's span are accounted for; the rest (client
	// transport, loopback TCP, scheduling) is not.
	var total, unaccounted time.Duration
	for _, step := range []struct {
		first int
		ss    []sample
	}{{p.lightFirst, p.lightS}, {p.heavyFirst, p.heavyS}} {
		for i, s := range step.ss {
			if !s.ok {
				continue
			}
			e2e := s.latency()
			acc := s.lag()
			if l := byID[strconv.Itoa(step.first+i)]; l != nil && l.router != nil {
				acc += l.router.dur()
			}
			total += e2e
			if e2e > acc {
				unaccounted += e2e - acc
			}
		}
	}
	if total > 0 {
		r.set("ledger.unaccounted_pct", 100*float64(unaccounted)/float64(total))
	}
}

// jobLayers reads the warm and cold jobs' manifests and results from
// their shards: trace-cache cell outcomes, queue wait and run time of
// the cold jobs, and host ns per simulated access of the cold jobs.
func jobLayers(r *report, g *rig, p *phase) {
	var recorded, replayed, executed int
	var recordUS, replayUS, executeUS, decodeUS int64
	cells := func(m *service.Manifest) {
		recorded += m.CellsRecorded
		replayed += m.CellsReplayed
		executed += m.CellsExecuted
		for _, c := range m.Cells {
			switch c.Mode {
			case "record":
				recordUS += c.DurationUS
			case "execute":
				executeUS += c.DurationUS
			default:
				replayUS += c.DurationUS
			}
			decodeUS += c.DecodeUS
		}
	}
	for _, w := range g.warm {
		if j, ok := g.shardJob(w.id); ok && j.Manifest() != nil {
			cells(j.Manifest())
		}
	}
	var queue, run []float64
	var runUS, accesses float64
	for _, c := range p.cold {
		j, ok := g.shardJob(c.id)
		if !ok || j.Manifest() == nil {
			continue
		}
		m := j.Manifest()
		cells(m)
		queue = append(queue, float64(m.QueueWaitUS)/1e3)
		run = append(run, float64(m.RunUS)/1e3)
		if res := j.Result(); res != nil {
			if n := counterSum(res.Counters, ".Loads", ".Stores"); n > 0 {
				runUS += float64(m.RunUS)
				accesses += float64(n)
			}
		}
	}
	r.set("harness.cells_recorded", float64(recorded))
	r.set("harness.cells_replayed", float64(replayed))
	r.set("harness.cells_executed", float64(executed))
	r.set("harness.record_s", float64(recordUS)/1e6)
	r.set("harness.replay_s", float64(replayUS)/1e6)
	r.set("harness.execute_s", float64(executeUS)/1e6)
	r.set("tracefile.decode_s", float64(decodeUS)/1e6)
	r.set("service.queue_wait_ms", median(queue))
	r.set("service.run_ms", median(run))
	if accesses > 0 {
		r.set("sim.ns_per_access", runUS*1e3/accesses)
	}
}

// counterSum adds the values of a counter dump's lines whose name ends
// in one of suffixes ("<name> <value>" per line).
func counterSum(dump []byte, suffixes ...string) uint64 {
	var n uint64
	sc := bufio.NewScanner(bytes.NewReader(dump))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for _, suf := range suffixes {
			if strings.HasSuffix(name, suf) {
				v, err := strconv.ParseUint(val, 10, 64)
				if err == nil {
					n += v
				}
			}
		}
	}
	return n
}
