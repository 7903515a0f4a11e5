package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request of an open-loop step.
type sample struct {
	due   time.Time // when the schedule said to send it
	start time.Time // when a connection actually sent it
	end   time.Time
	ok    bool
}

// latency is the request's time from its due time to its completion: a
// stall delays every request due during it, and that wait counts.
func (s sample) latency() time.Duration { return s.end.Sub(s.due) }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.start.Sub(s.due) }

// openLoop offers requests at a fixed rate for dur over conns workers:
// request k is due at t0 + k/rate whatever happened to earlier ones. A
// worker takes the next request in due order, waits until it is due,
// sends it with do(first+k) and records it; when every worker is busy,
// due requests wait, and that wait is part of their latency. do reports
// whether the request succeeded.
func openLoop(rate float64, dur time.Duration, conns, first int, do func(k int) bool) []sample {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	samples := make([]sample, n)
	interval := float64(time.Second) / rate
	var next atomic.Int64
	t0 := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := t0.Add(time.Duration(float64(k) * interval))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				start := time.Now()
				ok := do(first + k)
				samples[k] = sample{due: due, start: start, end: time.Now(), ok: ok}
			}
		}()
	}
	wg.Wait()
	return samples
}

// stepStats summarises one step from its raw samples (exact
// percentiles, no histogram buckets). A failed request counts as
// missing every latency limit: its latency is +Inf.
type stepStats struct {
	rate           float64 // offered, req/s
	n, failed      int
	p50, p99       float64 // ms from due time
	lagP50, lagP99 float64 // ms
	achieved       float64 // req/s actually sent
}

func summarize(rate float64, ss []sample) stepStats {
	st := stepStats{rate: rate, n: len(ss)}
	lat := make([]float64, len(ss))
	lags := make([]float64, len(ss))
	var first, last time.Time
	for i, s := range ss {
		lags[i] = ms(s.lag())
		if s.ok {
			lat[i] = ms(s.latency())
		} else {
			st.failed++
			lat[i] = math.Inf(1)
		}
		if i == 0 || s.due.Before(first) {
			first = s.due
		}
		if s.start.After(last) {
			last = s.start
		}
	}
	st.p50, st.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	st.lagP50, st.lagP99 = quantile(lags, 0.5), quantile(lags, 0.99)
	if span := last.Sub(first).Seconds(); span > 0 && len(ss) > 1 {
		st.achieved = float64(len(ss)-1) / span
	}
	return st
}

// latencyLimitMs is the p99 a step must meet to count towards max_rps:
// above the stalls this host shows below the knee, far below the
// latency of an overloaded fleet.
const latencyLimitMs = 25

// passes reports whether a step meets the latency limit with under 1%
// failures and without falling behind its schedule (a growing backlog
// shows as the generator sending slower than offered).
func (st stepStats) passes() bool {
	return st.p99 <= latencyLimitMs && st.failed*100 < st.n && st.achieved >= 0.95*st.rate
}

func (st stepStats) String() string {
	return fmt.Sprintf("offered %.0f req/s: p50 %.3f ms p99 %.3f ms (n=%d, %d failed) lag p50 %.3f p99 %.3f ms achieved %.0f req/s",
		st.rate, st.p50, st.p99, st.n, st.failed, st.lagP50, st.lagP99, st.achieved)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
