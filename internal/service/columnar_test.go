package service

import (
	"bytes"
	"context"
	"encoding/base64"
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
	"impulse/internal/workloads"
)

// testGridDoc builds a small decoded result document for stubbed
// columnar results.
func testGridDoc() *colres.Doc {
	d := &colres.Doc{
		Title:    "stub grid",
		Sections: []string{"alpha", "beta"},
		Columns:  []string{"none", "mc", "l1", "both"},
	}
	for si := uint32(0); si < 2; si++ {
		for ci := uint32(0); ci < 4; ci++ {
			d.Cells = append(d.Cells, colres.Cell{
				Section: si, Column: ci,
				Cycles: uint64(1000 - 100*ci), Loads: 100, Stores: 40, BusBytes: 4096,
				P50: 1, P95: 80, P99: 100,
				L1: 0.75, L2: 0.0625, Mem: 0.1875, AvgLoad: 10.5,
				Speedup: 1 + float64(ci)*0.25,
			})
		}
	}
	return d
}

// columnarExec is a stub executor that finishes immediately with a
// columnar grid result, like a real table1/table2 run with
// format=columnar.
func columnarExec(blob []byte) func(context.Context, Spec, harness.Progress) (*Result, error) {
	return func(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
		return &Result{
			Output:   blob,
			Counters: []byte("c 1\n"),
			MIME:     colres.ContentType,
			Columnar: blob,
		}, nil
	}
}

func submitAndWait(t *testing.T, s *Service, spec Spec) *Job {
	t.Helper()
	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	return j
}

// TestResultServedFromArchivedBytes pins what a cache hit serves: the
// encoded blob's exact bytes with the columnar MIME type — no decode, no
// re-encode — held by the daemon, not read through the archived file. A
// rewrite of that file in place, and then its truncation, must change
// nothing a later hit serves; the store checks a file's digest only when
// it reads it, and a live result never rereads its file.
func TestResultServedFromArchivedBytes(t *testing.T) {
	blob := colres.Encode(testGridDoc())
	s := New(Config{Executors: 1})
	s.executeFn = columnarExec(append([]byte(nil), blob...))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submitAndWait(t, s, diagSpec(64))
	get := func() []byte {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != colres.ContentType {
			t.Fatalf("Content-Type %q, want %q", ct, colres.ContentType)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	if got := get(); !bytes.Equal(got, blob) {
		t.Fatalf("served %d bytes differ from the encoded blob (%d bytes)", len(got), len(blob))
	}

	path := filepath.Join(s.arch.Dir(), j.Hash+store.BlobExt)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{'~'}, int64(len(blob)/2)); err != nil {
		t.Fatal(err)
	}
	if got := get(); !bytes.Equal(got, blob) {
		t.Error("response changed after the archived file was rewritten in place")
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if got := get(); !bytes.Equal(got, blob) {
		t.Fatal("response changed after the archived file was truncated")
	}
}

// TestResultViewsRenderFromColumns: every ?view= rendering of a
// finished job is computed from the archived columns and matches the
// direct colres rendering of the same document.
func TestResultViewsRenderFromColumns(t *testing.T) {
	doc := testGridDoc()
	blob := colres.Encode(doc)
	s := New(Config{Executors: 1})
	s.executeFn = columnarExec(blob)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submitAndWait(t, s, diagSpec(64))
	get := func(view string) (int, string, []byte) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/result?view=" + view)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}

	var wantJSON, wantText, wantSVG bytes.Buffer
	if err := colres.WriteGridJSON(doc, &wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := colres.RenderText(doc, &wantText); err != nil {
		t.Fatal(err)
	}
	if err := harness.SpeedupChartDoc(doc, &wantSVG); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		view, ct string
		want     []byte
	}{
		{"columnar", colres.ContentType, blob},
		{"json", "application/json", wantJSON.Bytes()},
		{"text", "text/plain; charset=utf-8", wantText.Bytes()},
		{"svg", "image/svg+xml", wantSVG.Bytes()},
	} {
		code, ct, body := get(tc.view)
		if code != http.StatusOK {
			t.Fatalf("view %s: status %d", tc.view, code)
		}
		if ct != tc.ct {
			t.Errorf("view %s: Content-Type %q, want %q", tc.view, ct, tc.ct)
		}
		if !bytes.Equal(body, tc.want) {
			t.Errorf("view %s: body differs from direct rendering", tc.view)
		}
	}
	if code, _, _ := get("bogus"); code != http.StatusBadRequest {
		t.Errorf("unknown view: status %d, want 400", code)
	}
}

// TestResultViewWithoutColumnarPayload: non-grid results have no
// columns to render views from.
func TestResultViewWithoutColumnarPayload(t *testing.T) {
	stub := newStub()
	close(stub.release) // finish immediately
	s := New(Config{Executors: 1})
	s.executeFn = stub.fn
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submitAndWait(t, s, diagSpec(64))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/result?view=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("view of a viewless result: status %d, want 400", resp.StatusCode)
	}
}

// TestByteBudgetEviction: the archive LRU accounts blob bytes against
// CacheBytes on top of the entry bound — old blobs (and their files)
// go away once the budget is exceeded, the gauge tracks what remains,
// and an evicted result is a cache miss on resubmission.
func TestByteBudgetEviction(t *testing.T) {
	blob := colres.Encode(testGridDoc())
	// Budget fits two blobs but not three.
	s := New(Config{Executors: 1, CacheSize: 100, CacheBytes: int64(2*len(blob) + len(blob)/2)})
	calls := 0
	s.executeFn = func(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
		calls++
		return &Result{Output: blob, Counters: []byte("c 1\n"),
			MIME: colres.ContentType, Columnar: blob}, nil
	}
	defer s.Close()
	if s.arch == nil {
		t.Fatal("service has no blob archive")
	}

	j1 := submitAndWait(t, s, diagSpec(101))
	j2 := submitAndWait(t, s, diagSpec(102))
	if got, want := s.gCacheBytes.Load(), uint64(2*len(blob)); got != want {
		t.Fatalf("cache bytes after two jobs: %d, want %d", got, want)
	}

	j3 := submitAndWait(t, s, diagSpec(103))
	if got, want := s.gCacheBytes.Load(), uint64(2*len(blob)); got != want {
		t.Errorf("cache bytes after eviction: %d, want %d", got, want)
	}
	s.mu.Lock()
	_, has1 := s.byHash[j1.Hash]
	_, has2 := s.byHash[j2.Hash]
	_, has3 := s.byHash[j3.Hash]
	s.mu.Unlock()
	if has1 || !has2 || !has3 {
		t.Errorf("LRU kept the wrong results: j1=%v j2=%v j3=%v, want only j2+j3", has1, has2, has3)
	}
	blobPath := func(hash string) string {
		return filepath.Join(s.arch.Dir(), hash+store.BlobExt)
	}
	if _, err := os.Stat(blobPath(j1.Hash)); !os.IsNotExist(err) {
		t.Errorf("evicted blob file still on disk: %v", err)
	}
	if _, err := os.Stat(blobPath(j3.Hash)); err != nil {
		t.Errorf("fresh blob file missing: %v", err)
	}

	// The evicted spec must run again; a retained one must not.
	before := calls
	if _, deduped, err := s.Submit(diagSpec(102)); err != nil || !deduped {
		t.Errorf("retained result was not a cache hit (deduped=%v err=%v)", deduped, err)
	}
	j1b, deduped, err := s.Submit(diagSpec(101))
	if err != nil || deduped {
		t.Fatalf("evicted result still answered from cache (deduped=%v err=%v)", deduped, err)
	}
	waitState(t, j1b, StateDone)
	if calls != before+1 {
		t.Errorf("re-running the evicted spec made %d executions, want 1", calls-before)
	}

	// The gauge is exported under the metrics endpoint.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	want := fmt.Sprintf("service_result_cache_bytes %d", 2*len(blob))
	if !strings.Contains(string(metrics), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestCellEventsStreamChunks: a job whose executor reports finished
// rows emits "cell" SSE events whose base64 chunks decode back to the
// reported rows.
// TestResubmitAfterDoneIsCacheHit pins finishJob's order: a job is
// filed in the result cache before it reads done, so a resubmission made
// the moment done closes is a cache hit, never a dedup onto the finished
// job, and no finished timeline gains a "dedup" mark.
func TestResubmitAfterDoneIsCacheHit(t *testing.T) {
	s := New(Config{Executors: 1, CacheSize: 1000})
	s.executeFn = columnarExec(colres.Encode(testGridDoc()))
	defer s.Close()
	const rounds = 200
	for i := 0; i < rounds; i++ {
		spec := diagSpec(1000 + i)
		j, _, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		again, deduped, err := s.Submit(spec)
		if err != nil || !deduped || again != j {
			t.Fatalf("round %d: resubmission = (%v, %v, %v), want the finished job", i, again, deduped, err)
		}
		var tr bytes.Buffer
		if err := j.Trace().WriteJSON(&tr); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(tr.String(), `"dedup"`) {
			t.Fatalf("round %d: finished job %s gained a dedup mark", i, j.ID)
		}
	}
	if n := s.cDeduped.Load(); n != 0 {
		t.Errorf("jobs_deduped = %d, want 0", n)
	}
	if n := s.cCacheHit.Load(); n != rounds {
		t.Errorf("jobs_cache_hits = %d, want %d", n, rounds)
	}
}

func TestCellEventsStreamChunks(t *testing.T) {
	rows := []colres.Row{
		{Label: "alpha/none", Cycles: 1000, Loads: 100, L1: 0.75, AvgLoad: 10.5},
		{Label: "alpha/mc", Cycles: 800, Loads: 100, L1: 0.8, AvgLoad: 7.5, P99: 42},
	}
	s := New(Config{Executors: 1})
	s.executeFn = func(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
		emit := rowChunkSinkFrom(ctx)
		if emit == nil {
			return nil, fmt.Errorf("job context carries no row-chunk sink")
		}
		for _, r := range rows {
			emit(r.Label, colres.EncodeRow(r))
		}
		return &Result{Output: []byte("ok\n"), Counters: []byte("c 1\n"), MIME: "text/plain"}, nil
	}
	defer s.Close()

	j := submitAndWait(t, s, diagSpec(64))
	replay, _, cancel := j.Subscribe()
	defer cancel()
	var got []colres.Row
	for _, ev := range replay {
		if ev.Type != "cell" {
			continue
		}
		raw, err := base64.StdEncoding.DecodeString(ev.Chunk)
		if err != nil {
			t.Fatalf("cell chunk is not base64: %v", err)
		}
		r, err := colres.DecodeRow(raw)
		if err != nil {
			t.Fatalf("cell chunk does not decode: %v", err)
		}
		if ev.Label != r.Label {
			t.Errorf("event label %q != chunk label %q", ev.Label, r.Label)
		}
		got = append(got, r)
	}
	if len(got) != len(rows) {
		t.Fatalf("replay carried %d cell events, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Errorf("cell %d round-tripped as %+v, want %+v", i, got[i], rows[i])
		}
	}
}

// TestExecuteStreamsGridCells drives the real harness: a tiny Table 2
// run under a row-chunk sink streams one decodable chunk per measured
// grid cell, and the chunks agree with the final columnar blob.
func TestExecuteStreamsGridCells(t *testing.T) {
	spec, err := (Spec{Kind: "table2", N: workloads.MMPTiny().N, Tile: workloads.MMPTiny().Tile}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var chunks []colres.Row
	ctx := withRowChunkSink(context.Background(), func(label string, chunk []byte) {
		r, err := colres.DecodeRow(chunk)
		if err != nil {
			t.Errorf("chunk for %q does not decode: %v", label, err)
			return
		}
		chunks = append(chunks, r)
	})
	res, err := Execute(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := colres.Decode(res.Columnar)
	if err != nil {
		t.Fatalf("result blob does not decode: %v", err)
	}
	if len(chunks) == 0 || len(chunks) != len(doc.Cells) {
		t.Fatalf("streamed %d chunks for %d grid cells", len(chunks), len(doc.Cells))
	}
	// Chunk labels are the harness row labels (workload/config), not
	// grid coordinates, so match each blob cell to a chunk by its full
	// metric tuple.
	used := make([]bool, len(chunks))
	for _, c := range doc.Cells {
		found := false
		for i, r := range chunks {
			if used[i] {
				continue
			}
			if r.Cycles == c.Cycles && r.Loads == c.Loads && r.Stores == c.Stores &&
				r.BusBytes == c.BusBytes && r.P50 == c.P50 && r.P95 == c.P95 && r.P99 == c.P99 &&
				r.L1 == c.L1 && r.L2 == c.L2 && r.Mem == c.Mem && r.AvgLoad == c.AvgLoad {
				used[i], found = true, true
				break
			}
		}
		if !found {
			t.Errorf("no streamed chunk matches grid cell %s/%s",
				doc.Sections[c.Section], doc.Columns[c.Column])
		}
	}
}

// BenchmarkResultServeHit measures a result-cache hit end to end
// through the HTTP handler: the archived columnar bytes against the
// render-per-hit JSON view (what every hit used to pay before blobs).
func BenchmarkResultServeHit(b *testing.B) {
	blob := colres.Encode(testGridDoc())
	s := New(Config{Executors: 1})
	s.executeFn = columnarExec(blob)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, err := s.Submit(Spec{Kind: "sim", Workload: "diag", N: 64})
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()

	serve := func(b *testing.B, url string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			n, _ := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || n == 0 {
				b.Fatalf("status %d, %d bytes", resp.StatusCode, n)
			}
		}
	}
	b.Run("columnar", func(b *testing.B) {
		serve(b, ts.URL+"/v1/jobs/"+j.ID+"/result")
	})
	b.Run("json-view-rendered", func(b *testing.B) {
		serve(b, ts.URL+"/v1/jobs/"+j.ID+"/result?view=json")
	})
}
