package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestOpenLoopChargesStallsToRequestsDueDuringThem drives the generator
// against a handler with a known service time and one injected stall
// that holds every request arriving inside it. Requests due during the
// stall must show latency reaching to its end, because latency runs
// from the due time; requests due well after it must not.
func TestOpenLoopChargesStallsToRequestsDueDuringThem(t *testing.T) {
	const service = 2 * time.Millisecond
	start := time.Now()
	stallFrom := start.Add(300 * time.Millisecond)
	stallTo := stallFrom.Add(100 * time.Millisecond)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if now := time.Now(); now.After(stallFrom) && now.Before(stallTo) {
			time.Sleep(stallTo.Sub(now))
		}
		time.Sleep(service)
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer client.CloseIdleConnections()

	ss := openLoop(200, time.Second, conns, 0, func(int) bool {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		_, err = io.ReadAll(resp.Body)
		return err == nil && resp.StatusCode == http.StatusOK
	})
	if len(ss) != 200 {
		t.Fatalf("%d samples, want 200", len(ss))
	}
	var during, after []float64
	for _, s := range ss {
		if !s.ok {
			t.Fatalf("request due %v failed", s.due.Sub(start))
		}
		switch {
		case !s.due.Before(stallFrom) && s.due.Before(stallTo):
			if s.end.Before(stallTo) {
				t.Errorf("request due %v inside the stall finished at %v, before the stall ended",
					s.due.Sub(start), s.end.Sub(start))
			}
			during = append(during, ms(s.latency()))
		case s.due.After(stallTo.Add(200 * time.Millisecond)):
			after = append(after, ms(s.latency()))
		}
		if s.latency() < service {
			t.Errorf("request due %v: latency %v below the service time", s.due.Sub(start), s.latency())
		}
	}
	if len(during) < 15 || len(after) < 50 {
		t.Fatalf("%d samples due during the stall, %d after; the schedule did not cover the stall", len(during), len(after))
	}
	if first := quantile(during, 1); first < 90 {
		t.Errorf("the first request due in the 100 ms stall waited %.1f ms", first)
	}
	if p50 := quantile(after, 0.5); p50 > 20 {
		t.Errorf("requests due after the stall still see p50 %.1f ms", p50)
	}
	st := summarize(200, ss)
	if st.p99 < 50 || st.failed != 0 || math.IsInf(st.p99, 1) {
		t.Errorf("step p99 %.1f ms with %d failures; the stall must show in the tail", st.p99, st.failed)
	}
}

func TestQuantileAndCoverage(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("a failed request must count as missing every limit, got p99 %v", got)
	}
	t0 := time.Unix(0, 0)
	at := func(a, b int) span {
		return span{start: t0.Add(time.Duration(a) * time.Second), end: t0.Add(time.Duration(b) * time.Second)}
	}
	spans := []span{at(1, 3), at(2, 4), at(6, 7), at(9, 12)}
	if got := covered(spans, t0, t0.Add(10*time.Second)); got != 5*time.Second {
		t.Errorf("covered = %v, want 5s (1-4, 6-7, 9-10)", got)
	}
}
