package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"impulse/internal/harness"
)

// stubExec replaces Execute with a controllable executor: it signals
// started, then blocks until release fires or ctx is cancelled.
type stubExec struct {
	started chan string // receives the spec hash when a run begins
	release chan struct{}
	calls   int // guarded by mu
	mu      sync.Mutex
}

func newStub() *stubExec {
	return &stubExec{started: make(chan string, 16), release: make(chan struct{})}
}

func (st *stubExec) fn(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
	st.mu.Lock()
	st.calls++
	st.mu.Unlock()
	st.started <- spec.Hash()
	if progress != nil {
		progress("stub", "cell")
	}
	select {
	case <-st.release:
		return &Result{Output: []byte("stub output\n"), Counters: []byte("c 1\n"), MIME: "text/plain"}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (st *stubExec) callCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.calls
}

// diagSpec returns a distinct valid spec per n (cheap to normalize, the
// stub never actually runs it).
func diagSpec(n int) Spec { return Spec{Kind: "sim", Workload: "diag", N: n} }

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if j.Status().State == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %s stuck in %s, want %s", j.ID, j.Status().State, want)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestSpecCanonicalization(t *testing.T) {
	// Spelling out the defaults and omitting them hash identically.
	a, err := (Spec{Kind: "table1"}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := (Spec{Kind: "table1", N: 14000, CGIts: 8, Niter: 1}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Errorf("defaulted and spelled-out specs hash differently:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	// Different experiments hash differently.
	c, err := (Spec{Kind: "table1", CGIts: 4}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == c.Hash() {
		t.Error("distinct specs collided")
	}
	// Unknown fields and kinds are rejected.
	if _, err := ParseSpec([]byte(`{"kind":"table1","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{"kind":"nope"}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ParseSpec([]byte(`{"kind":"sweep","family":"nope"}`)); err == nil {
		t.Error("unknown sweep family accepted")
	}
}

// TestSpecTable1NonzerBound: a Table 1 geometry whose vectors need more
// distinct positions than the matrix has would generate forever, so
// ParseSpec rejects nonzer = n+1 and accepts nonzer = n.
func TestSpecTable1NonzerBound(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"kind":"table1","n":16,"nonzer":17}`)); err == nil {
		t.Error("nonzer = n+1 accepted")
	}
	if _, err := ParseSpec([]byte(`{"kind":"table1","n":16,"nonzer":16}`)); err != nil {
		t.Errorf("nonzer = n rejected: %v", err)
	}
}

func TestQueueFullRejects(t *testing.T) {
	stub := newStub()
	s := New(Config{QueueDepth: 1, Executors: 1})
	s.executeFn = stub.fn
	defer s.Close()

	// First job occupies the executor...
	if _, _, err := s.Submit(diagSpec(512)); err != nil {
		t.Fatal(err)
	}
	<-stub.started
	// ...second fills the queue...
	if _, _, err := s.Submit(diagSpec(513)); err != nil {
		t.Fatal(err)
	}
	// ...third must bounce with backpressure, not block or grow state.
	if _, _, err := s.Submit(diagSpec(514)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(stub.release)
}

func TestSingleFlightDedup(t *testing.T) {
	stub := newStub()
	s := New(Config{QueueDepth: 8, Executors: 2})
	s.executeFn = stub.fn
	defer s.Close()

	const n = 8
	jobs := make([]*Job, n)
	dedup := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, d, err := s.Submit(diagSpec(512))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i], dedup[i] = j, d
		}(i)
	}
	wg.Wait()
	<-stub.started
	close(stub.release)

	first := jobs[0]
	nDeduped := 0
	for i, j := range jobs {
		if j != first {
			t.Fatalf("submission %d got a different job (%s vs %s)", i, j.ID, first.ID)
		}
		if dedup[i] {
			nDeduped++
		}
	}
	if nDeduped != n-1 {
		t.Errorf("%d submissions marked deduped, want %d", nDeduped, n-1)
	}
	<-first.Done()
	if got := stub.callCount(); got != 1 {
		t.Errorf("executor ran %d times for %d identical submissions, want 1", got, n)
	}
	// A post-completion resubmission hits the result cache, still no new run.
	j2, d2, err := s.Submit(diagSpec(512))
	if err != nil || !d2 || j2 != first {
		t.Errorf("cache hit: job=%v deduped=%v err=%v", j2, d2, err)
	}
	if got := stub.callCount(); got != 1 {
		t.Errorf("cache hit re-executed (calls=%d)", got)
	}
}

func TestFailedJobIsNotCached(t *testing.T) {
	boom := errors.New("boom")
	var calls int
	var mu sync.Mutex
	s := New(Config{QueueDepth: 8, Executors: 1})
	s.executeFn = func(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return nil, boom
		}
		return &Result{Output: []byte("ok"), MIME: "text/plain"}, nil
	}
	defer s.Close()

	j1, _, err := s.Submit(diagSpec(512))
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	if st := j1.Status(); st.State != StateFailed || st.Error != "boom" {
		t.Fatalf("first job: %+v", st)
	}
	// Same spec again: failures must not be served from cache.
	j2, deduped, err := s.Submit(diagSpec(512))
	if err != nil {
		t.Fatal(err)
	}
	if deduped || j2 == j1 {
		t.Fatal("failed job was deduped/cached")
	}
	<-j2.Done()
	if st := j2.Status(); st.State != StateDone {
		t.Fatalf("retry: %+v", st)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	stub := newStub()
	s := New(Config{QueueDepth: 4, Executors: 1})
	s.executeFn = stub.fn
	defer s.Close()

	blocker, _, err := s.Submit(diagSpec(512))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started
	queued, _, err := s.Submit(diagSpec(513))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	<-queued.Done()
	if st := queued.Status(); st.State != StateCancelled {
		t.Fatalf("queued job after cancel: %+v", st)
	}
	// Cancelling again is an error (already terminal).
	if err := s.Cancel(queued.ID); err == nil {
		t.Error("double cancel succeeded")
	}
	// The executor must skip the cancelled job, not run it.
	close(stub.release)
	<-blocker.Done()
	time.Sleep(10 * time.Millisecond) // give the executor a beat to (not) pick it up
	if got := stub.callCount(); got != 1 {
		t.Errorf("executor ran %d jobs, want 1 (cancelled job must be skipped)", got)
	}
	// An identical resubmission after cancellation starts fresh.
	j2, deduped, err := s.Submit(diagSpec(513))
	if err != nil || deduped || j2 == queued {
		t.Errorf("resubmit after cancel: job=%v deduped=%v err=%v", j2, deduped, err)
	}
}

func TestCancelWhileRunning(t *testing.T) {
	stub := newStub()
	s := New(Config{QueueDepth: 4, Executors: 1})
	s.executeFn = stub.fn
	defer s.Close()

	j, _, err := s.Submit(diagSpec(512))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started // the stub is now blocked inside the job
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled running job never finished")
	}
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	if got := s.cCancelled.Load(); got != 1 {
		t.Errorf("cancelled counter = %d", got)
	}
}

func TestDrainFinishesInFlight(t *testing.T) {
	stub := newStub()
	s := New(Config{QueueDepth: 4, Executors: 1})
	s.executeFn = stub.fn

	j, _, err := s.Submit(diagSpec(512))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	// Draining becomes visible, and new submissions are rejected clearly.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.Submit(diagSpec(513)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}
	// The in-flight job is given time to finish...
	close(stub.release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// ...and its result stays retrievable after the drain completes.
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("in-flight job after drain: %+v", st)
	}
	if res := j.Result(); res == nil || string(res.Output) != "stub output\n" {
		t.Fatalf("result not retrievable after drain: %+v", res)
	}
	if got, ok := s.Get(j.ID); !ok || got != j {
		t.Error("job not addressable after drain")
	}
}

func TestDrainDeadlineCancelsStuckJobs(t *testing.T) {
	stub := newStub() // release never fires: the job only exits via ctx
	s := New(Config{QueueDepth: 4, Executors: 1})
	s.executeFn = stub.fn

	j, _, err := s.Submit(diagSpec(512))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with a stuck job returned nil, want deadline error")
	}
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("stuck job after forced drain: %+v", st)
	}
}

func TestEventsReplayAndLive(t *testing.T) {
	stub := newStub()
	s := New(Config{QueueDepth: 4, Executors: 1})
	s.executeFn = stub.fn
	defer s.Close()

	j, _, err := s.Submit(diagSpec(512))
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started
	waitState(t, j, StateRunning)
	replay, ch, unsub := j.Subscribe()
	defer unsub()
	// Replay already holds the running transition and the stub's progress.
	if len(replay) < 1 || replay[0].Type != "state" || replay[0].State != StateRunning {
		t.Fatalf("replay = %+v", replay)
	}
	close(stub.release)
	var last Event
	for ev := range ch {
		last = ev
	}
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("final live event = %+v", last)
	}
	// Seq numbers are the event's index: replay + live form one gapless log.
	all := j.Status().Events
	if last.Seq != all-1 {
		t.Errorf("final seq = %d, want %d", last.Seq, all-1)
	}
	// Subscribing after completion returns the full log and a closed channel.
	replay2, ch2, unsub2 := j.Subscribe()
	defer unsub2()
	if len(replay2) != all {
		t.Errorf("post-completion replay has %d events, want %d", len(replay2), all)
	}
	if _, open := <-ch2; open {
		t.Error("post-completion channel not closed")
	}
}

func TestArchiveEviction(t *testing.T) {
	s := New(Config{QueueDepth: 16, Executors: 1, CacheSize: 2})
	s.executeFn = func(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
		return &Result{Output: []byte(fmt.Sprintf("n=%d", spec.N)), MIME: "text/plain"}, nil
	}
	defer s.Close()

	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, _, err := s.Submit(diagSpec(512 + i))
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		jobs = append(jobs, j)
	}
	// Only the 2 most recent stay addressable.
	if _, ok := s.Get(jobs[0].ID); ok {
		t.Error("oldest job survived eviction")
	}
	if _, ok := s.Get(jobs[3].ID); !ok {
		t.Error("newest job evicted")
	}
	// Evicted hashes re-execute instead of hitting a dangling cache entry.
	j, deduped, err := s.Submit(diagSpec(512))
	if err != nil || deduped {
		t.Fatalf("resubmit of evicted spec: deduped=%v err=%v", deduped, err)
	}
	<-j.Done()
	if res := j.Result(); res == nil || string(res.Output) != "n=512" {
		t.Fatalf("re-executed result: %+v", res)
	}
}
