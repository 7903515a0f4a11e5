package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

// goldenRegistry builds a registry with one of every metric type and
// deterministic values, shared by the format golden tests.
func goldenRegistry() *Registry {
	var r Registry
	c := uint64(3)
	r.Counter("mem.Loads", &c)
	r.GaugeFunc("service.queue_depth", "Jobs waiting to run.", func() uint64 { return 2 })
	r.CounterFunc("service.jobs_done", "Jobs finished successfully.", func() uint64 { return 5 })
	h := r.Histogram("service.render_us", "Render time in microseconds.")
	h.Observe(0)
	h.Observe(3)
	h.Observe(5)
	v := r.HistogramVec("service.job_run_duration_us", "Job execution time by spec kind.", "kind")
	v.With("table1").Observe(100)
	v.With("sim").Observe(7)
	v.With("table1").Observe(130)
	return &r
}

func TestWriteTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`mem.Loads 3`,
		`service.job_run_duration_us_count{kind="sim"} 1`,
		`service.job_run_duration_us_count{kind="table1"} 2`,
		`service.job_run_duration_us_sum{kind="sim"} 7`,
		`service.job_run_duration_us_sum{kind="table1"} 230`,
		`service.jobs_done 5`,
		`service.queue_depth 2`,
		`service.render_us_count 3`,
		`service.render_us_sum 8`,
	}, "\n") + "\n"
	if buf.String() != want {
		t.Errorf("plain dump:\n%s\nwant:\n%s", buf.String(), want)
	}
	// Deterministic: a second render is byte-identical.
	var again bytes.Buffer
	goldenRegistry().WriteText(&again)
	if again.String() != buf.String() {
		t.Error("plain dump is not deterministic")
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	// Structural golden: metadata lines, sanitized names, and the exact
	// scalar series.
	for _, want := range []string{
		"# TYPE mem_Loads counter\nmem_Loads 3\n",
		"# HELP service_jobs_done Jobs finished successfully.\n# TYPE service_jobs_done counter\nservice_jobs_done 5\n",
		"# HELP service_queue_depth Jobs waiting to run.\n# TYPE service_queue_depth gauge\nservice_queue_depth 2\n",
		"# TYPE service_render_us histogram\n",
		"# TYPE service_job_run_duration_us histogram\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}

	// Histogram series: cumulative buckets with power-of-two le bounds,
	// +Inf equals _count, label pairs preserved and sorted.
	for _, want := range []string{
		`service_render_us_bucket{le="1"} 1`, // the 0 observation
		`service_render_us_bucket{le="3"} 2`, // cumulative: 0 and 3
		`service_render_us_bucket{le="7"} 3`, // 5 lands in [4,8)
		`service_render_us_bucket{le="+Inf"} 3`,
		`service_render_us_sum 8`,
		`service_render_us_count 3`,
		`service_job_run_duration_us_bucket{kind="table1",le="127"} 1`,
		`service_job_run_duration_us_bucket{kind="table1",le="255"} 2`,
		`service_job_run_duration_us_bucket{kind="table1",le="+Inf"} 2`,
		`service_job_run_duration_us_count{kind="table1"} 2`,
		`service_job_run_duration_us_bucket{kind="sim",le="7"} 1`,
		`service_job_run_duration_us_count{kind="sim"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}

	// label series of one family sort by label value: sim before table1.
	if i, j := strings.Index(got, `{kind="sim",le="1"}`), strings.Index(got, `{kind="table1",le="1"}`); i < 0 || j < 0 || i > j {
		t.Errorf("label series out of order (sim at %d, table1 at %d)", i, j)
	}

	// TYPE appears exactly once per family even with several label series.
	if n := strings.Count(got, "# TYPE service_job_run_duration_us histogram"); n != 1 {
		t.Errorf("TYPE line for labeled family appears %d times, want 1", n)
	}

	var again bytes.Buffer
	goldenRegistry().WritePrometheus(&again)
	if again.String() != got {
		t.Error("prometheus dump is not deterministic")
	}
}

func TestMetricsHandlerFormats(t *testing.T) {
	r := goldenRegistry()
	h := MetricsHandler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("prometheus Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE service_jobs_done counter") {
		t.Errorf("default format is not prometheus:\n%s", rec.Body.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(3) // bucket le=3
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket le=1023
	}
	s := h.Snapshot()
	if q := s.Quantile(50); q != 3 {
		t.Errorf("p50 = %d, want 3", q)
	}
	if q := s.Quantile(95); q != 1023 {
		t.Errorf("p95 = %d, want 1023", q)
	}
	if q := s.Quantile(99); q != 1023 {
		t.Errorf("p99 = %d, want 1023", q)
	}
	if (HistSnapshot{}).Quantile(50) != 0 {
		t.Error("empty snapshot quantile != 0")
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var r *Registry
	r.GaugeFunc("x", "", func() uint64 { return 1 })
	r.CounterFunc("x", "", func() uint64 { return 1 })
	if h := r.Histogram("h", ""); h != nil {
		t.Error("nil registry returned non-nil histogram")
	}
	var h *Histogram
	h.Observe(5) // must not panic
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram nonzero")
	}
	var v *HistVec
	v.With("a").Observe(1) // nil vec -> nil child -> no-op
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndexMirrorsStats(t *testing.T) {
	// The shared bucketing contract: bucket i holds [2^i, 2^(i+1)),
	// bucket 0 also holds zero, last bucket open-ended.
	cases := []struct {
		v    uint64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}, {1 << 40, 31}}
	for _, c := range cases {
		if got := BucketIndex(c.v, 32); got != c.want {
			t.Errorf("BucketIndex(%d, 32) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := BucketIndex(1<<20, 16); got != 15 {
		t.Errorf("16-bucket clamp: got %d, want 15", got)
	}
	if BucketBound(3) != 15 {
		t.Errorf("BucketBound(3) = %d, want 15", BucketBound(3))
	}
}
