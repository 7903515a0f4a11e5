package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"impulse/internal/colres"
	"impulse/internal/harness"
	"impulse/internal/obs"
	"impulse/internal/twin"
	"impulse/internal/twin/validate"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs                submit a spec (JSON body; tier=twin answers eligible sweeps instantly)
//	POST /v1/predict             answer a sweep spec from its analytical twin, synchronously
//	                             (422 + registry reason when the family has no twin; docs/TWIN.md)
//	GET  /v1/jobs                list tracked jobs
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/result    result bytes (202 + Retry-After while pending; ?wait=30s long-polls;
//	                             ?view=columnar|json|text|svg renders that view from the columnar blob)
//	GET  /v1/jobs/{id}/counters  the job's counter-registry dump
//	GET  /v1/jobs/{id}/trace     the job's Perfetto/Chrome timeline JSON
//	GET  /v1/jobs/{id}/manifest  the job's provenance manifest (202 while pending; ?wait long-polls)
//	POST /v1/jobs/{id}/cancel    cancel a queued or running job
//	GET  /v1/jobs/{id}/events    live progress (Server-Sent Events)
//	GET  /healthz                liveness + drain state
//	GET  /readyz                 readiness: not draining, queue accepting work, archive writable
//	GET  /metrics                Prometheus text exposition
//	GET  /debug/pprof/           Go runtime profiles (see docs/PERF.md)
//
// Every non-pprof endpoint is instrumented: request latency lands in the
// service.http_request_duration_us histogram labeled by endpoint, and
// service.http_in_flight counts requests being served.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		hist := s.hHTTP.With(endpoint)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			s.gHTTPInFlight.Add(1)
			start := time.Now()
			defer func() {
				s.gHTTPInFlight.Add(^uint64(0))
				hist.Observe(uint64(time.Since(start).Microseconds()))
			}()
			h(w, r)
		})
	}
	route("POST /v1/jobs", "submit", s.handleSubmit)
	route("POST /v1/predict", "predict", s.handlePredict)
	route("GET /v1/jobs", "list", s.handleList)
	route("GET /v1/jobs/{id}", "status", s.handleStatus)
	route("GET /v1/jobs/{id}/result", "result", s.handleResult)
	route("GET /v1/jobs/{id}/counters", "counters", s.handleCounters)
	route("GET /v1/jobs/{id}/trace", "trace", s.handleTrace)
	route("GET /v1/jobs/{id}/manifest", "manifest", s.handleManifest)
	route("POST /v1/jobs/{id}/cancel", "cancel", s.handleCancel)
	route("GET /v1/jobs/{id}/events", "events", s.handleEvents)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /readyz", "readyz", s.handleReadyz)
	route("GET /metrics", "metrics", obs.MetricsHandler(&s.reg).ServeHTTP)
	// Profiling endpoints: the daemon is where long sweeps run, so being
	// able to grab a CPU or heap profile from a live instance is how the
	// fast-path work in internal/sim gets found and verified.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
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

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	spec, err := ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, deduped, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		retry := s.retryAfter()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": err.Error(), "retry_after_s": retry})
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := job.Status()
	st.Deduped = deduped
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Service) jobOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q (finished jobs are evicted after %d newer ones)", id, s.cfg.CacheSize)
		return nil, false
	}
	return j, true
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobOr404(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// waitFor blocks until the job is terminal, the optional ?wait duration
// elapses, or the client goes away. Returns true when terminal.
func waitFor(j *Job, r *http.Request) bool {
	waitStr := r.URL.Query().Get("wait")
	if waitStr == "" {
		select {
		case <-j.Done():
			return true
		default:
			return false
		}
	}
	d, err := time.ParseDuration(waitStr)
	if err != nil || d < 0 {
		d = 0
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.Done():
		return true
	case <-t.C:
		return false
	case <-r.Context().Done():
		return false
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if !waitFor(j, r) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, j.Status())
		return
	}
	st := j.Status()
	switch st.State {
	case StateDone:
		res := j.Result()
		w.Header().Set("X-Impulse-Job", j.ID)
		w.Header().Set("X-Impulse-Spec-Hash", j.Hash)
		if view := r.URL.Query().Get("view"); view != "" {
			s.writeResultView(w, res, view)
			return
		}
		w.Header().Set("Content-Type", res.MIME)
		// For columnar results Output holds the archived blob's bytes: no
		// decode and no re-encode.
		_, _ = w.Write(res.Output)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job %s failed: %s", j.ID, st.Error)
	case StateCancelled:
		writeError(w, http.StatusGone, "job %s was cancelled", j.ID)
	}
}

// writeResultView materializes one view of a finished job's columnar
// result on demand: "columnar" writes the archived blob bytes verbatim;
// "json", "text", and "svg" decode the columns and render. Views exist
// only for grid results (kinds table1/table2) — other kinds have no
// columnar payload.
func (s *Service) writeResultView(w http.ResponseWriter, res *Result, view string) {
	if len(res.Columnar) == 0 {
		writeError(w, http.StatusBadRequest, "result has no columnar payload (views need kind table1 or table2)")
		return
	}
	if view == "columnar" {
		w.Header().Set("Content-Type", colres.ContentType)
		_, _ = w.Write(res.Columnar)
		return
	}
	doc, err := colres.Decode(res.Columnar)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "decoding archived result: %v", err)
		return
	}
	switch view {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		_ = colres.WriteGridJSON(doc, w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = colres.RenderText(doc, w)
	case "svg":
		w.Header().Set("Content-Type", "image/svg+xml")
		_ = harness.SpeedupChartDoc(doc, w)
	default:
		writeError(w, http.StatusBadRequest, "unknown view %q (columnar|json|text|svg)", view)
	}
}

func (s *Service) handleCounters(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if !waitFor(j, r) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, j.Status())
		return
	}
	res := j.Result()
	if res == nil {
		st := j.Status()
		writeError(w, http.StatusGone, "job %s is %s: %s", j.ID, st.State, st.Error)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(res.Counters)
}

// handleTrace serves the job's Perfetto/Chrome trace-event timeline.
// Always available (a running job yields its timeline so far); load the
// JSON in ui.perfetto.dev or chrome://tracing.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Impulse-Job", j.ID)
	_ = j.Trace().WriteJSON(w)
}

// handleManifest serves the job's provenance manifest; like /result it
// answers 202 + Retry-After while the job is pending (?wait long-polls).
func (s *Service) handleManifest(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if !waitFor(j, r) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, j.Status())
		return
	}
	m := j.Manifest()
	if m == nil {
		writeError(w, http.StatusInternalServerError, "job %s has no manifest", j.ID)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(j.ID); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	writeEv := func(ev Event) {
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	}
	replay, ch, unsub := j.Subscribe()
	defer unsub()
	for _, ev := range replay {
		writeEv(ev)
	}
	if canFlush {
		fl.Flush()
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			writeEv(ev)
			if canFlush {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handlePredict answers a sweep spec from its analytical twin,
// synchronously, without creating a job: the instant tier's stateless
// endpoint. The response carries the prediction as grid JSON plus the
// tier and validated error-bound provenance; families without a twin get
// 422 with the eligibility registry's documented reason.
func (s *Service) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if spec.Kind == "" {
		spec.Kind = "sweep"
	}
	spec.Tier = TierTwin
	norm, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.cTwinRequests.Add(1)
	if reason, ok := twin.Eligible(norm.Family); !ok {
		s.cTwinIneligible.Add(1)
		writeError(w, http.StatusUnprocessableEntity,
			"family %q has no analytical twin: %s (submit without tier to simulate)", norm.Family, reason)
		return
	}
	start := time.Now()
	pred, err := twin.Predict(norm.Family, norm.Fast)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	elapsed := time.Since(start)
	s.hTwinLat.Observe(uint64(elapsed.Microseconds()))

	var grid bytes.Buffer
	if err := colres.WriteGridJSON(pred.Doc(), &grid); err != nil {
		writeError(w, http.StatusInternalServerError, "rendering prediction: %v", err)
		return
	}
	bound, _ := validate.Bound(norm.Family)
	w.Header().Set("X-Impulse-Tier", TierTwin)
	writeJSON(w, http.StatusOK, map[string]any{
		"family":      norm.Family,
		"fast":        norm.Fast,
		"tier":        TierTwin,
		"error_bound": bound,
		"elapsed_us":  elapsed.Microseconds(),
		"grid":        json.RawMessage(bytes.TrimSpace(grid.Bytes())),
	})
}

// handleReadyz is the readiness probe: liveness (/healthz) says the
// process is up, readiness says it can actually take and persist work —
// not draining, bounded queue has room, and the result archive accepts
// writes. Load balancers should gate traffic on this one.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	checks := map[string]string{}
	ready := true
	fail := func(name, why string) { checks[name] = why; ready = false }

	switch {
	case s.Draining():
		fail("queue", "draining")
	case len(s.queue) >= s.cfg.QueueDepth:
		fail("queue", "full")
	default:
		checks["queue"] = "ok"
	}
	switch {
	case s.arch == nil:
		fail("archive", "unavailable (results would not persist)")
	default:
		if err := s.arch.Writable(); err != nil {
			fail("archive", err.Error())
		} else {
			checks["archive"] = "ok"
		}
	}
	code := http.StatusOK
	status := "ready"
	if !ready {
		code = http.StatusServiceUnavailable
		status = "not ready"
	}
	writeJSON(w, code, map[string]any{"status": status, "checks": checks})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"uptime_seconds": int(time.Since(s.start).Seconds()),
		"queue_depth":    len(s.queue),
		"queue_capacity": s.cfg.QueueDepth,
		"running":        s.gRunning.Load(),
		"executors":      s.cfg.Executors,
	})
}
