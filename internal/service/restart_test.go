package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"impulse/internal/colres"
	"impulse/internal/harness"
	"impulse/internal/store"
)

// TestRestartServesArchivedResults is the restart-durability headline:
// a daemon restarted on the same archive directory serves every
// previously completed result byte-identically from disk — cache hits,
// not re-executions — with provenance marking them recovered.
func TestRestartServesArchivedResults(t *testing.T) {
	dir := t.TempDir()
	blob := colres.Encode(testGridDoc())

	s1 := New(Config{Executors: 1, ArchiveDir: dir})
	s1.executeFn = columnarExec(blob)
	gridJob := submitAndWait(t, s1, diagSpec(64))
	gridHash := gridJob.Hash

	// A plain-text (non-columnar) result must survive too.
	s1.executeFn = func(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
		return &Result{Output: []byte("plain output\n"), Counters: []byte("c 2\n"), MIME: "text/plain"}, nil
	}
	textJob := submitAndWait(t, s1, diagSpec(65))
	textHash := textJob.Hash
	wantGrid := append([]byte(nil), gridJob.Result().Output...)
	wantText := append([]byte(nil), textJob.Result().Output...)
	s1.Close()

	s2 := New(Config{Executors: 1, ArchiveDir: dir})
	s2.executeFn = func(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
		t.Error("restarted daemon re-executed an archived spec")
		return nil, fmt.Errorf("must not run")
	}
	defer s2.Close()
	if got := s2.cRecovered.Load(); got != 2 {
		t.Fatalf("recovered %d entries, want 2", got)
	}

	// Identical submissions are cache hits on the recovered jobs.
	for _, tc := range []struct {
		spec Spec
		hash string
		want []byte
	}{
		{diagSpec(64), gridHash, wantGrid},
		{diagSpec(65), textHash, wantText},
	} {
		j, deduped, err := s2.Submit(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !deduped {
			t.Fatalf("spec %s was not a cache hit after restart", tc.hash)
		}
		if j.Hash != tc.hash {
			t.Fatalf("recovered job hash %s, want %s", j.Hash, tc.hash)
		}
		res := j.Result()
		if res == nil || !bytes.Equal(res.Output, tc.want) {
			t.Fatalf("recovered result for %s is not byte-identical", tc.hash)
		}
		m := j.Manifest()
		if m == nil || !m.Recovered {
			t.Errorf("recovered job %s manifest not marked recovered", j.ID)
		}
	}
	if got := s2.cExecuted.Load(); got != 0 {
		t.Errorf("restarted daemon executed %d jobs serving recovered hits, want 0", got)
	}

	// The HTTP surface serves the recovered grid result end to end,
	// including views rendered from the recovered columnar blob.
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	j2, _, _ := s2.Submit(diagSpec(64))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, wantGrid) {
		t.Fatalf("recovered result over HTTP: status %d, %d bytes", resp.StatusCode, len(body))
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + j2.ID + "/result?view=json")
	if err != nil {
		t.Fatal(err)
	}
	view, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var wantJSON bytes.Buffer
	if err := colres.WriteGridJSON(testGridDoc(), &wantJSON); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(view, wantJSON.Bytes()) {
		t.Fatalf("recovered json view: status %d, body differs", resp.StatusCode)
	}
}

// TestRestartIgnoresCrashOrphans pins the service half of the
// mid-archive crash story: a daemon that died between temp-file write
// and rename leaves an orphan the next startup must neither serve nor
// keep — startup GC unlinks it — while complete entries keep serving.
func TestRestartIgnoresCrashOrphans(t *testing.T) {
	dir := t.TempDir()
	blob := colres.Encode(testGridDoc())
	s1 := New(Config{Executors: 1, ArchiveDir: dir})
	s1.executeFn = columnarExec(blob)
	j := submitAndWait(t, s1, diagSpec(64))
	want := append([]byte(nil), j.Result().Output...)
	hash := j.Hash
	s1.Close()

	// The crash shapes: an un-renamed temp file and a sidecar-less blob.
	orphanTmp := filepath.Join(dir, "deadbeef.tmp-42")
	orphanBlob := filepath.Join(dir, "deadbeef"+store.BlobExt)
	if err := os.WriteFile(orphanTmp, []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphanBlob, []byte("no-sidecar"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Executors: 1, ArchiveDir: dir})
	defer s2.Close()
	if got := s2.cRecovered.Load(); got != 1 {
		t.Fatalf("recovered %d entries, want 1 (orphans must not be trusted)", got)
	}
	for _, p := range []string{orphanTmp, orphanBlob} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("startup GC left orphan %s on disk", filepath.Base(p))
		}
	}
	j2, deduped, err := s2.Submit(diagSpec(64))
	if err != nil || !deduped {
		t.Fatalf("complete entry not served after crash-restart (deduped=%v err=%v)", deduped, err)
	}
	if res := j2.Result(); res == nil || !bytes.Equal(res.Output, want) {
		t.Fatalf("hash %s not byte-identical after crash-restart", hash)
	}
}

// TestRecoveryRespectsCacheBounds: more archived entries than CacheSize
// must not balloon the restarted daemon — the oldest are evicted (and
// their files removed) just as if they had aged out live.
func TestRecoveryRespectsCacheBounds(t *testing.T) {
	dir := t.TempDir()
	blob := colres.Encode(testGridDoc())
	s1 := New(Config{Executors: 1, ArchiveDir: dir, CacheSize: 100})
	s1.executeFn = columnarExec(blob)
	for i := 0; i < 5; i++ {
		submitAndWait(t, s1, diagSpec(200+i))
	}
	s1.Close()

	s2 := New(Config{Executors: 1, ArchiveDir: dir, CacheSize: 3})
	defer s2.Close()
	s2.mu.Lock()
	entries := s2.archive.Len()
	s2.mu.Unlock()
	if entries != 3 {
		t.Fatalf("restarted LRU holds %d entries, want 3 (CacheSize)", entries)
	}
	// The newest three survived; the oldest two are gone from disk too.
	files, _ := filepath.Glob(filepath.Join(dir, "*"+store.BlobExt))
	if len(files) != 3 {
		t.Errorf("%d blob files on disk after bounded recovery, want 3", len(files))
	}
}

// TestRecoveryKeepsOversizedFreshest: the byte budget exempts the
// freshest result live, and a restart on the same directory applies the
// same policy, so a result larger than CacheBytes that the live daemon
// serves is still served, unexecuted, after the restart.
func TestRecoveryKeepsOversizedFreshest(t *testing.T) {
	dir := t.TempDir()
	blob := colres.Encode(testGridDoc())
	cfg := Config{Executors: 1, ArchiveDir: dir, CacheBytes: int64(len(blob)) - 1}
	s1 := New(cfg)
	s1.executeFn = columnarExec(blob)
	j := submitAndWait(t, s1, diagSpec(64))
	if again, deduped, err := s1.Submit(diagSpec(64)); err != nil || !deduped || again != j {
		t.Fatalf("live daemon did not serve its oversized result (deduped=%v err=%v)", deduped, err)
	}
	s1.Close()

	s2 := New(cfg)
	s2.executeFn = func(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
		t.Error("restarted daemon re-executed the result the live daemon kept")
		return nil, fmt.Errorf("must not run")
	}
	defer s2.Close()
	if got := s2.cRecovered.Load(); got != 1 {
		t.Fatalf("recovered %d entries, want 1", got)
	}
	j2, deduped, err := s2.Submit(diagSpec(64))
	if err != nil || !deduped {
		t.Fatalf("oversized freshest result not served after restart (deduped=%v err=%v)", deduped, err)
	}
	if res := j2.Result(); res == nil || !bytes.Equal(res.Output, blob) {
		t.Fatal("recovered oversized result is not byte-identical")
	}
}

// TestRecoveryRespectsByteBudget: archived bytes beyond CacheBytes at
// restart are evicted oldest first, files unlinked, by the trim the live
// daemon runs after every job.
func TestRecoveryRespectsByteBudget(t *testing.T) {
	dir := t.TempDir()
	blob := colres.Encode(testGridDoc())
	s1 := New(Config{Executors: 1, ArchiveDir: dir})
	s1.executeFn = columnarExec(blob)
	var hashes []string // oldest first
	for i := 0; i < 4; i++ {
		hashes = append(hashes, submitAndWait(t, s1, diagSpec(300+i)).Hash)
	}
	s1.Close()

	// Room for two and a half blobs: the two newest stay.
	s2 := New(Config{Executors: 1, ArchiveDir: dir, CacheBytes: int64(5 * len(blob) / 2)})
	defer s2.Close()
	if got := s2.cRecovered.Load(); got != 2 {
		t.Fatalf("recovered %d entries, want 2", got)
	}
	if got, want := s2.gCacheBytes.Load(), uint64(2*len(blob)); got != want {
		t.Errorf("service.result_cache_bytes = %d after restart, want %d", got, want)
	}
	for i, h := range hashes {
		kept := i >= 2
		s2.mu.Lock()
		_, cached := s2.byHash[h]
		s2.mu.Unlock()
		if cached != kept {
			t.Errorf("entry %d (of 4, oldest first): cached=%v, want %v", i, cached, kept)
		}
		for _, ext := range []string{store.BlobExt, store.MetaExt} {
			_, err := os.Stat(filepath.Join(dir, h+ext))
			if onDisk := err == nil; onDisk != kept {
				t.Errorf("entry %d (of 4, oldest first): %s on disk=%v, want %v", i, ext, onDisk, kept)
			}
		}
	}
}

// TestJobsNewestFirstAcrossRestart: GET /v1/jobs lists newest submission
// first. Recovered jobs keep their original submission time, so a job
// submitted after the restart leads, then the recovered ones, newest
// first.
func TestJobsNewestFirstAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	exec := columnarExec(colres.Encode(testGridDoc()))
	s1 := New(Config{Executors: 1, ArchiveDir: dir})
	s1.executeFn = exec
	older := submitAndWait(t, s1, diagSpec(64)).Hash
	newer := submitAndWait(t, s1, diagSpec(65)).Hash
	s1.Close()

	s2 := New(Config{Executors: 1, ArchiveDir: dir})
	s2.executeFn = exec
	defer s2.Close()
	fresh := submitAndWait(t, s2, diagSpec(66))
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Jobs []JobStatus }
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, st := range list.Jobs {
		got = append(got, st.ID+" "+st.Hash)
	}
	want := []string{fresh.ID + " " + fresh.Hash, "r-000002 " + newer, "r-000001 " + older}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("GET /v1/jobs order:\n got  %v\n want %v", got, want)
	}
}

// TestEvictionUnlinksEmptyResult: evicting a result whose archived blob
// is empty unlinks its files like any other, so a restart does not
// recover what the live daemon evicted.
func TestEvictionUnlinksEmptyResult(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Executors: 1, ArchiveDir: dir, CacheSize: 1})
	s.executeFn = func(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
		return &Result{MIME: "text/plain"}, nil
	}
	defer s.Close()
	evicted := submitAndWait(t, s, diagSpec(100))
	submitAndWait(t, s, diagSpec(101))
	for _, ext := range []string{store.BlobExt, store.MetaExt} {
		if _, err := os.Stat(filepath.Join(dir, evicted.Hash+ext)); !os.IsNotExist(err) {
			t.Errorf("evicted empty result left its %s file on disk (err=%v)", ext, err)
		}
	}
}
