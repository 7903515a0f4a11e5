package service

import (
	"container/list"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"impulse/internal/colres"
	"impulse/internal/harness"
	"impulse/internal/obs"
	"impulse/internal/store"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one entry of a job's progress stream (served over SSE).
// "cell" events stream finished grid cells incrementally: Label names
// the row and Chunk carries its metrics as a base64 columnar row record
// (colres.DecodeRow), so a client can build the result column by column
// while the job is still running.
type Event struct {
	Seq     int    `json:"seq"`
	Type    string `json:"type"` // "state", "progress", or "cell"
	State   State  `json:"state,omitempty"`
	Section string `json:"section,omitempty"`
	Column  string `json:"column,omitempty"`
	Label   string `json:"label,omitempty"`
	Chunk   string `json:"chunk,omitempty"`
}

// Job is one tracked experiment execution. All fields behind mu; reads
// go through Status()/Wait()/Snapshot helpers.
type Job struct {
	ID   string
	Spec Spec // normalized
	Hash string

	mu        sync.Mutex
	state     State
	result    *Result
	errMsg    string
	cancelReq bool               // client asked to cancel
	cancelRun context.CancelFunc // non-nil while running
	events    []Event
	subs      map[chan Event]struct{}
	done      chan struct{} // closed on terminal state
	submitted time.Time
	started   time.Time
	finished  time.Time

	// Observability: the job's Perfetto timeline (trace is internally
	// locked, so Mark/Phase/Cell never take j.mu), the raw cell events
	// feeding the manifest, and the manifest itself (built once, at
	// finish).
	trace    *obs.JobTrace
	cells    []harness.CellEvent
	manifest *Manifest

	// blobBytes is the size of this job's archived columnar blob, the
	// unit the byte-budget eviction accounts in (0 when the job left no
	// blob).
	blobBytes int

	// tier is the serving tier that answered the job: TierTwin for jobs
	// computed by the analytical twin, empty for simulated jobs. It
	// lands in the manifest together with the twin's documented error
	// bound.
	tier string
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID          string     `json:"id"`
	State       State      `json:"state"`
	Hash        string     `json:"hash"`
	Spec        Spec       `json:"spec"`
	Error       string     `json:"error,omitempty"`
	Deduped     bool       `json:"deduped,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Events      int        `json:"events"`
}

// Status snapshots the job for clients.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, State: j.state, Hash: j.Hash, Spec: j.Spec,
		Error: j.errMsg, SubmittedAt: j.submitted, Events: len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the finished result, or nil if not (successfully) done.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Trace returns the job's Perfetto timeline. Never nil for jobs created
// by Submit; safe to render at any point in the lifecycle (a running
// job yields its timeline so far).
func (j *Job) Trace() *obs.JobTrace { return j.trace }

// Manifest returns the job's provenance manifest, or nil while the job
// is still queued or running (manifests describe finished work).
func (j *Job) Manifest() *Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.manifest
}

// observeCell records one harness cell event against the job (timeline
// lane + manifest row). Called concurrently from pool workers.
func (j *Job) observeCell(ev harness.CellEvent) {
	j.trace.Cell(ev.Key+" "+ev.Mode, ev.Start, ev.End)
	j.mu.Lock()
	j.cells = append(j.cells, ev)
	j.mu.Unlock()
}

// emit appends an event and fans it out to subscribers. Slow consumers
// drop events rather than stall the experiment (SSE replays carry seq
// numbers, so a gap is visible client-side).
func (j *Job) emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe returns the events so far plus a channel of future events.
// The channel is closed when the job finishes. Call the returned cancel
// to unsubscribe.
func (j *Job) Subscribe() (replay []Event, ch chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	ch = make(chan Event, 256)
	if j.state.Terminal() {
		close(ch)
		return replay, ch, func() {}
	}
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[ch] = struct{}{}
	return replay, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// finalize moves the job to a terminal state, records its manifest,
// closes done, and closes every subscriber after a final state event.
// Caller must NOT hold j.mu.
func (j *Job) finalize(state State, res *Result, errMsg string, now time.Time) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.finished = now
	subs := j.subs
	j.subs = nil
	ev := Event{Seq: len(j.events), Type: "state", State: state}
	j.events = append(j.events, ev)
	j.manifest = buildManifestLocked(j)
	close(j.done)
	j.mu.Unlock()
	for ch := range subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
}

// Sentinel submission errors (the HTTP layer maps them to status codes).
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity, so
	// the submission is rejected (HTTP 429) instead of growing an
	// unbounded backlog of goroutines and specs.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects new work during graceful shutdown (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting new jobs")
)

// Config sizes a Service.
type Config struct {
	// QueueDepth bounds jobs waiting to run (default 64). Submissions
	// beyond it fail with ErrQueueFull.
	QueueDepth int
	// Executors is how many jobs run concurrently (default 2). Each
	// running job fans its cells across the shared harness pool, so
	// total simulation parallelism is roughly Executors x harness
	// workers; keep Executors small.
	Executors int
	// CacheSize bounds the LRU of completed jobs kept for result reuse
	// and status queries (default 128).
	CacheSize int
	// CacheBytes bounds the total size of archived columnar result
	// blobs (default 256 MiB). The LRU accounts bytes, not entries: a
	// handful of huge sweep results can evict many small ones. The most
	// recent result always stays cached even if it alone exceeds the
	// budget.
	CacheBytes int64
	// ArchiveDir is where result blobs are stored (and memory-mapped
	// from). Empty means a private temporary directory removed on
	// drain.
	ArchiveDir string
	// Logger receives structured job-lifecycle logs (started, finished,
	// slow-job warnings). Nil discards them — library users and most
	// tests; impulsed wires its process logger in.
	Logger *slog.Logger
	// SlowJobThreshold flags jobs whose execution (not queue wait)
	// exceeds it with a WARN log line. Zero disables the check.
	SlowJobThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	return c
}

// Service owns the job table, the bounded queue, and the executors.
type Service struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job // id -> job (active + archived)
	inflight map[string]*Job // hash -> queued/running job (single-flight)
	archive  *list.List      // *Job, most recent in front (LRU of finished jobs)
	archived map[string]*list.Element
	byHash   map[string]*Job // hash -> last successful job (result cache)
	queue    chan *Job
	seq      int
	draining bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	execWG     sync.WaitGroup
	start      time.Time

	// arch is the persistent content-addressed result store (blob +
	// manifest sidecar per spec hash; internal/store); gCacheBytes
	// tracks the bytes it holds on behalf of archived jobs (the
	// byte-budget LRU's accounting, exported as
	// service.result_cache_bytes).
	arch        *store.Store
	gCacheBytes atomic.Uint64

	// Counters, exported through Registry(). cExecuted counts actual
	// harness executions — the single-flight tests pin it. The twin
	// counters track the analytical tier: requests (Submit tier=twin and
	// /v1/predict), and how many of those named a family with no twin.
	cSubmitted, cDeduped, cCacheHit, cCacheMiss, cExecuted atomic.Uint64
	cDone, cFailed, cCancelled, cRejected                  atomic.Uint64
	cTwinRequests, cTwinIneligible                         atomic.Uint64
	cRecovered                                             atomic.Uint64
	gRunning, gHTTPInFlight                                atomic.Uint64
	reg                                                    obs.Registry

	// Latency histograms (microseconds): queue wait and execution
	// duration labeled by spec kind, HTTP request duration labeled by
	// endpoint.
	hQueueWait, hRunDur, hHTTP *obs.HistVec

	// hTwinLat distributes analytical-twin answer latencies — the tier's
	// whole point is that these sit in microseconds, not seconds.
	hTwinLat *obs.Histogram

	logger *slog.Logger

	// executeFn indirection lets tests substitute a controllable
	// executor; production always uses Execute.
	executeFn func(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error)
}

// New starts a service with cfg.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		archive:    list.New(),
		archived:   make(map[string]*list.Element),
		byHash:     make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		start:      time.Now(),
		executeFn:  Execute,
		logger:     cfg.Logger,
	}
	if s.logger == nil {
		s.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	arch, err := store.Open(cfg.ArchiveDir)
	if err != nil {
		// Results still flow (heap-backed); only the mmap fast path and
		// on-disk persistence are lost.
		s.logger.Warn("result store unavailable", "dir", cfg.ArchiveDir, "err", err)
	} else {
		s.arch = arch
	}
	s.registerMetrics()
	if s.arch != nil {
		// Startup GC first (unlinks crashed-write orphans and trims the
		// store to the byte budget), then rebuild the result cache from
		// whatever survived — a rebooted daemon serves yesterday's cache
		// hits from disk without re-executing anything.
		if st := s.arch.GC(cfg.CacheBytes); st.Orphans > 0 || st.Evicted > 0 {
			s.logger.Info("result store GC", "dir", s.arch.Dir(), "orphans", st.Orphans,
				"evicted", st.Evicted, "freed_bytes", st.FreedBytes, "live_bytes", st.LiveBytes)
		}
		s.recoverArchived()
	}
	s.execWG.Add(cfg.Executors)
	for i := 0; i < cfg.Executors; i++ {
		go s.executor()
	}
	return s
}

func (s *Service) registerMetrics() {
	u := func(c *atomic.Uint64) func() uint64 { return c.Load }
	s.reg.CounterFunc("service.jobs_submitted", "Total job submissions, including deduped and cache-hit ones.", u(&s.cSubmitted))
	s.reg.CounterFunc("service.jobs_deduped", "Submissions coalesced single-flight onto a queued or running job.", u(&s.cDeduped))
	s.reg.CounterFunc("service.jobs_cache_hits", "Submissions answered from the completed-result cache.", u(&s.cCacheHit))
	s.reg.CounterFunc("service.jobs_cache_miss", "Submissions that enqueued a new job (no in-flight or cached twin).", u(&s.cCacheMiss))
	s.reg.CounterFunc("service.jobs_executed", "Jobs that actually ran on the harness (the single-flight invariant pins this).", u(&s.cExecuted))
	s.reg.CounterFunc("service.jobs_done", "Jobs finished successfully.", u(&s.cDone))
	s.reg.CounterFunc("service.jobs_failed", "Jobs finished with an error.", u(&s.cFailed))
	s.reg.CounterFunc("service.jobs_cancelled", "Jobs cancelled while queued or running.", u(&s.cCancelled))
	s.reg.CounterFunc("service.jobs_rejected_queue_full", "Submissions rejected with 429 because the queue was full.", u(&s.cRejected))
	s.reg.GaugeFunc("service.jobs_running", "Jobs currently executing.", u(&s.gRunning))
	s.reg.GaugeFunc("service.http_in_flight", "HTTP requests currently being served.", u(&s.gHTTPInFlight))
	s.reg.GaugeFunc("service.result_cache_bytes", "Bytes of archived columnar result blobs held by the byte-budget LRU.", s.gCacheBytes.Load)
	s.reg.GaugeFunc("service.queue_depth", "Jobs waiting in the bounded queue.", func() uint64 { return uint64(len(s.queue)) })
	s.reg.GaugeFunc("service.queue_capacity", "Configured queue bound.", func() uint64 { return uint64(s.cfg.QueueDepth) })
	s.reg.GaugeFunc("service.executors", "Configured executor goroutines.", func() uint64 { return uint64(s.cfg.Executors) })
	s.reg.GaugeFunc("service.harness_workers", "Harness worker-pool width shared by all jobs.", func() uint64 { return uint64(harness.Workers()) })
	s.reg.GaugeFunc("service.uptime_seconds", "Seconds since the service started.", func() uint64 { return uint64(time.Since(s.start).Seconds()) })
	s.reg.CounterFunc("service.jobs_recovered", "Completed results recovered from the on-disk store at startup and served without re-execution.", u(&s.cRecovered))
	s.reg.CounterFunc("service.twin_requests", "Analytical-twin tier requests (submits with tier=twin plus /v1/predict calls).", u(&s.cTwinRequests))
	s.reg.CounterFunc("service.twin_ineligible", "Twin-tier requests naming a family with no analytical twin (submits fall through to simulation).", u(&s.cTwinIneligible))
	s.hTwinLat = s.reg.Histogram("service.twin_latency_us", "Microseconds spent computing analytical-twin predictions.")
	s.hQueueWait = s.reg.HistogramVec("service.job_queue_wait_us", "Microseconds jobs spent queued before an executor picked them up.", "kind")
	s.hRunDur = s.reg.HistogramVec("service.job_run_duration_us", "Microseconds jobs spent executing on the harness.", "kind")
	s.hHTTP = s.reg.HistogramVec("service.http_request_duration_us", "Microseconds spent serving HTTP requests.", "endpoint")
}

// Registry exposes the service's live counters (mounted at /metrics).
func (s *Service) Registry() *obs.Registry { return &s.reg }

// recoverArchived rebuilds the completed-result cache from the on-disk
// store: every complete entry becomes a terminal recovered job ("r-"
// IDs), registered in the archive LRU oldest-first so eviction order
// survives the restart. Entries whose sidecar spec no longer hashes to
// its own key (schema drift, tampering) are dropped rather than served
// under the wrong identity. Runs once, from New, before the executors
// start.
func (s *Service) recoverArchived() {
	for _, hash := range s.arch.Hashes() { // oldest SavedAt first
		b, m, ok := s.arch.Get(hash)
		if !ok {
			continue // torn or corrupt; the store already dropped it
		}
		norm, err := ParseSpec(m.Spec)
		if err != nil || norm.Hash() != hash {
			s.logger.Warn("recovered entry spec does not match its hash; dropping",
				"hash", hash, "err", err)
			s.arch.Remove(hash)
			continue
		}
		res := &Result{Counters: m.Counters, MIME: m.MIME, Output: m.Output, blob: b}
		if m.ColumnarBlob {
			res.Columnar = b.Data
		}
		if m.OutputIsBlob {
			res.Output = b.Data
		}
		at := m.SavedAt
		if at.IsZero() {
			at = s.start
		}
		s.mu.Lock()
		s.seq++
		j := &Job{
			ID:   fmt.Sprintf("r-%06d", s.seq),
			Spec: norm, Hash: hash,
			state: StateDone, result: res,
			done:      make(chan struct{}),
			submitted: at, started: at, finished: at,
			trace:     obs.NewJobTrace(at),
			blobBytes: len(b.Data),
			tier:      m.Tier,
		}
		close(j.done)
		j.events = []Event{{Type: "state", State: StateDone}}
		s.mu.Unlock()
		man := buildManifest(j)
		man.Recovered = true
		j.mu.Lock()
		j.manifest = man
		j.mu.Unlock()
		s.mu.Lock()
		s.jobs[j.ID] = j
		s.byHash[hash] = j
		s.archived[j.ID] = s.archive.PushFront(j)
		s.gCacheBytes.Add(uint64(len(b.Data)))
		for s.archive.Len() > s.cfg.CacheSize {
			s.evictOldestLocked()
		}
		s.mu.Unlock()
		s.cRecovered.Add(1)
	}
	if n := s.cRecovered.Load(); n > 0 {
		s.logger.Info("recovered archived results", "dir", s.arch.Dir(), "entries", n,
			"bytes", s.gCacheBytes.Load())
	}
}

// Submit validates, canonicalizes, and enqueues spec. If an identical
// spec (by canonical hash) is already queued or running, the existing
// job is returned with deduped=true and nothing new executes — that is
// the single-flight guarantee. If an identical spec already completed
// successfully and is still cached, its job is returned likewise.
//
// A spec requesting the analytical twin tier (tier=twin, kind sweep) is
// answered synchronously: the job is admitted, computed by the twin in
// microseconds, and returned already terminal — it never touches the
// queue or an executor. If the family has no twin, the tier is cleared
// and the spec falls through to an ordinary simulation job, sharing the
// simulation tier's cache key.
func (s *Service) Submit(spec Spec) (job *Job, deduped bool, err error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, false, err
	}
	twinRequested := norm.Tier == TierTwin
	norm, instant := ResolveTier(norm)
	if twinRequested {
		s.cTwinRequests.Add(1)
		if !instant {
			s.cTwinIneligible.Add(1)
		}
	}

	j, deduped, err := s.admit(norm, norm.Hash(), instant)
	if err != nil || deduped {
		return j, deduped, err
	}
	if instant {
		s.runTwinJob(j)
	}
	return j, false, nil
}

// admit is Submit's locked half: dedup checks and job registration. An
// instant (twin-tier) job is registered in-flight but not queued — the
// caller runs it synchronously right after.
func (s *Service) admit(norm Spec, hash string, instant bool) (job *Job, deduped bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	s.cSubmitted.Add(1)
	if j := s.inflight[hash]; j != nil {
		s.cDeduped.Add(1)
		j.trace.Mark("dedup", time.Now())
		return j, true, nil
	}
	if j := s.byHash[hash]; j != nil {
		// A finished job's timeline is closed: a cache hit is counted,
		// not marked, or a warm daemon's repeats would grow it forever.
		s.cCacheHit.Add(1)
		s.touchArchived(j)
		return j, true, nil
	}
	s.cCacheMiss.Add(1)

	s.seq++
	now := time.Now()
	j := &Job{
		ID:        fmt.Sprintf("j-%06d", s.seq),
		Spec:      norm,
		Hash:      hash,
		state:     StateQueued,
		done:      make(chan struct{}),
		submitted: now,
		trace:     obs.NewJobTrace(now),
	}
	if instant {
		j.tier = TierTwin
	}
	j.trace.Mark("submitted", now)
	if !instant {
		select {
		case s.queue <- j:
		default:
			s.cRejected.Add(1)
			return nil, false, ErrQueueFull
		}
	}
	s.jobs[j.ID] = j
	s.inflight[hash] = j
	return j, false, nil
}

// Get looks a job up by ID.
func (s *Service) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every tracked job's status, newest submission first.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	all := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	sts := make([]JobStatus, len(all))
	for i, j := range all {
		sts[i] = j.Status()
	}
	// Sort by ID descending (IDs are zero-padded sequence numbers).
	for i := 0; i < len(sts); i++ {
		for k := i + 1; k < len(sts); k++ {
			if sts[k].ID > sts[i].ID {
				sts[i], sts[k] = sts[k], sts[i]
			}
		}
	}
	return sts
}

// Cancel stops a job: a queued job finalizes immediately (the executor
// skips it when popped); a running job has its context cancelled and
// finalizes when the harness unwinds. Cancelling a finished job is an
// error. Note a cancelled job cancels for every deduped submitter that
// shares it.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("service: no such job %q", id)
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return fmt.Errorf("service: job %s already %s", id, j.state)
	case j.state == StateRunning:
		j.cancelReq = true
		cancel := j.cancelRun
		j.mu.Unlock()
		cancel()
		return nil
	default: // queued
		j.cancelReq = true
		j.mu.Unlock()
		s.finishJob(j, StateCancelled, nil, "cancelled while queued")
		return nil
	}
}

// executor pulls jobs until the queue closes (Drain).
func (s *Service) executor() {
	defer s.execWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Service) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.mu.Lock()
	if j.state.Terminal() { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	started := j.started
	j.cancelRun = cancel
	j.mu.Unlock()
	j.emit(Event{Type: "state", State: StateRunning})

	queueWait := started.Sub(j.submitted)
	j.trace.Phase("queued", j.submitted, started)
	s.hQueueWait.With(j.Spec.Kind).Observe(uint64(queueWait.Microseconds()))
	log := s.logger.With("job", j.ID, "kind", j.Spec.Kind, "hash", j.Hash)
	log.Info("job started", "queue_wait_ms", queueWait.Milliseconds())

	// The execution context carries the cell observer (timeline +
	// manifest) and the job trace (the inputs and render phases are
	// recorded from inside Execute).
	ctx = harness.WithCellObserver(ctx, j.observeCell)
	ctx = withJobTrace(ctx, j.trace)
	// Stream each finished grid cell to SSE subscribers as a columnar
	// row chunk; the final result blob is the same columns, indexed.
	ctx = withRowChunkSink(ctx, func(label string, chunk []byte) {
		j.emit(Event{Type: "cell", Label: label,
			Chunk: base64.StdEncoding.EncodeToString(chunk)})
	})

	s.gRunning.Add(1)
	s.cExecuted.Add(1)
	res, err := s.executeFn(ctx, j.Spec, func(section, column string) {
		j.emit(Event{Type: "progress", Section: section, Column: column})
	})
	s.gRunning.Add(^uint64(0))

	end := time.Now()
	runDur := end.Sub(started)
	j.trace.Phase("running", started, end)
	s.hRunDur.With(j.Spec.Kind).Observe(uint64(runDur.Microseconds()))

	j.mu.Lock()
	wasCancelled := j.cancelReq
	cellCount := len(j.cells)
	j.mu.Unlock()
	switch {
	case err != nil && (wasCancelled || errors.Is(err, context.Canceled)):
		s.finishJob(j, StateCancelled, nil, "cancelled")
	case err != nil:
		s.finishJob(j, StateFailed, nil, err.Error())
	default:
		s.finishJob(j, StateDone, res, "")
	}
	st := j.Status()
	log.Info("job finished", "state", st.State, "run_ms", runDur.Milliseconds(), "cells", cellCount)
	if s.cfg.SlowJobThreshold > 0 && runDur > s.cfg.SlowJobThreshold {
		log.Warn("slow job", "run_ms", runDur.Milliseconds(),
			"threshold_ms", s.cfg.SlowJobThreshold.Milliseconds())
	}
}

// finishJob finalizes j and moves it from the in-flight table to the
// archive LRU (successful results stay addressable by hash for reuse).
// A successful job's result is written durably to the on-disk store —
// blob plus manifest sidecar, enough to rebuild the wire-visible result
// byte-identically after a restart — and memory-mapped back in before
// finalize, so every reader — including the first — sees the mapped
// bytes and cache hits serve straight from the page cache with zero
// re-encoding.
func (s *Service) finishJob(j *Job, state State, res *Result, errMsg string) {
	now := time.Now()
	if state == StateDone && res != nil && s.arch != nil {
		meta := store.Meta{
			Hash: j.Hash, Kind: j.Spec.Kind, Canonical: j.Spec.Canonical(),
			MIME: res.MIME, Tier: j.tier, Counters: res.Counters,
		}
		if raw, err := json.Marshal(j.Spec); err == nil {
			meta.Spec = raw
		}
		// The blob is the big payload: the columnar document for grid
		// results, the rendered output for everything else. Rendered
		// text/json views of grid results are small and ride in the
		// sidecar.
		blob := res.Columnar
		switch {
		case len(blob) > 0 && res.MIME == colres.ContentType:
			meta.ColumnarBlob, meta.OutputIsBlob = true, true
		case len(blob) > 0:
			meta.ColumnarBlob = true
			meta.Output = res.Output
		default:
			blob = res.Output
			meta.OutputIsBlob = true
		}
		if b, err := s.arch.Put(blob, meta); err != nil {
			s.logger.Warn("result archive write failed", "job", j.ID, "err", err)
		} else {
			if meta.ColumnarBlob {
				res.Columnar = b.Data
			}
			if meta.OutputIsBlob {
				res.Output = b.Data
			}
			res.blob = b
			j.blobBytes = len(b.Data)
			s.gCacheBytes.Add(uint64(len(b.Data)))
		}
	}
	j.finalize(state, res, errMsg, now)
	j.trace.Mark("archived", now)
	switch state {
	case StateDone:
		s.cDone.Add(1)
	case StateFailed:
		s.cFailed.Add(1)
	case StateCancelled:
		s.cCancelled.Add(1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[j.Hash] == j {
		delete(s.inflight, j.Hash)
	}
	if state == StateDone {
		s.byHash[j.Hash] = j
	}
	s.archived[j.ID] = s.archive.PushFront(j)
	for s.archive.Len() > s.cfg.CacheSize {
		s.evictOldestLocked()
	}
	// Byte budget on top of the entry bound: blobs are accounted by
	// length, so one giant sweep result evicts many small ones. The
	// freshest entry is exempt — a result must be retrievable at least
	// once.
	for s.gCacheBytes.Load() > uint64(s.cfg.CacheBytes) && s.archive.Len() > 1 {
		s.evictOldestLocked()
	}
}

// evictOldestLocked drops the least-recently-used archived job: its
// table entries, its byte accounting, and — when it still owns its
// hash's blob — the on-disk blob. Caller holds s.mu.
func (s *Service) evictOldestLocked() {
	el := s.archive.Back()
	if el == nil {
		return
	}
	old := el.Value.(*Job)
	s.archive.Remove(el)
	delete(s.archived, old.ID)
	delete(s.jobs, old.ID)
	if s.byHash[old.Hash] == old {
		delete(s.byHash, old.Hash)
		if s.arch != nil && old.blobBytes > 0 {
			s.arch.Remove(old.Hash)
		}
	}
	if old.blobBytes > 0 {
		s.gCacheBytes.Add(^uint64(old.blobBytes - 1)) // subtract
	}
}

// touchArchived marks a cache-hit job recently used. Caller holds s.mu.
func (s *Service) touchArchived(j *Job) {
	if el, ok := s.archived[j.ID]; ok {
		s.archive.MoveToFront(el)
	}
}

// Draining reports whether the service has stopped accepting jobs.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the service down: new submissions fail with
// ErrDraining immediately, queued and running jobs are given until
// ctx's deadline to finish (their results stay retrievable), and if the
// deadline passes the remaining jobs are cancelled and awaited. Drain
// is idempotent; the first call's context governs.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.execWG.Wait()
		close(finished)
	}()
	// The store keeps its files on a caller-provided directory — restart
	// durability is the point; only a private temp-dir store removes
	// everything. Established mappings survive either way, so results
	// fetched after drain still read their pages.
	closeArch := func() {
		if s.arch != nil && !already {
			s.arch.Close()
		}
	}
	select {
	case <-finished:
		closeArch()
		return nil
	case <-ctx.Done():
		s.baseCancel() // cut in-flight jobs loose, then wait for unwind
		<-finished
		closeArch()
		return fmt.Errorf("service: drain deadline passed; in-flight jobs cancelled: %w", ctx.Err())
	}
}

// Close force-stops the service (tests): cancel everything, then drain.
func (s *Service) Close() {
	s.baseCancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}
