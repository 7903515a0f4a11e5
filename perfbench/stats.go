package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, computed from the raw samples. It returns NaN
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapPeak samples the live Go heap as marked by each garbage
// collection (/gc/heap/live:bytes) and keeps the maximum. Live heap is
// the reachable set, so unlike RSS or heap-in-use it does not depend on
// how much garbage happened to accumulate before the sample.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	max  uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapPeak starts sampling every 5 ms until finish is called.
func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{}), max: liveHeap()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe(liveHeap())
			}
		}
	}()
	return h
}

func (h *heapPeak) observe(v uint64) {
	h.mu.Lock()
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// retainedHeapMB is the live heap after two forced collections (the
// second empties the sync.Pool victim caches): what the workload's state
// holds once in-flight work has finished. Unlike the sampled peak it
// does not depend on when collections happened to run.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(liveHeap()) / (1 << 20)
}

// finish forces one collection, so the live set at the end of the
// measured part counts even if no collection ran since it peaked, stops
// the sampler and returns the peak in MB.
func (h *heapPeak) finish() float64 {
	runtime.GC()
	h.observe(liveHeap())
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.max) / (1 << 20)
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the machine's cumulative steal time over all CPUs, from
// /proc/stat: time the hypervisor ran something else while a CPU of
// this machine wanted to run. 0 where it is not reported.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}
