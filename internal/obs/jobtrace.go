package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// JobTrace is the service-level counterpart of the Hub's simulated-cycle
// span tracing: a goroutine-safe wall-clock timeline for one experiment
// job, exported as the same Chrome trace-event / Perfetto JSON the sim
// traces use, so a slow sweep can be opened in ui.perfetto.dev and
// diagnosed cell by cell. Times are microseconds relative to the job's
// submission.
//
// Three kinds of events:
//
//   - Mark: a lifecycle instant on the "job" track (submitted, archived);
//   - Phase: a lifecycle span on the "job" track (queued, running, render);
//   - Cell: a per-cell span (one grid cell's execution or reuse).
//     Cells run concurrently on the harness pool, so at export time they
//     are packed onto as few non-overlapping "cells #N" lanes as fit —
//     the lane layout shows the pool's actual parallelism.
//
// All methods are nil-safe: an untraced job costs one pointer compare
// per instrumentation site, preserving the obs layer's
// pay-for-what-you-use design.
type JobTrace struct {
	mu     sync.Mutex
	base   time.Time
	marks  []jobSpan
	phases []jobSpan
	cells  []jobSpan
}

// jobSpan is one recorded event: start/end in µs since base.
type jobSpan struct {
	name       string
	start, end int64
}

// NewJobTrace starts a timeline whose time zero is base (the job's
// submission time).
func NewJobTrace(base time.Time) *JobTrace {
	return &JobTrace{base: base}
}

func (t *JobTrace) us(at time.Time) int64 {
	us := at.Sub(t.base).Microseconds()
	if us < 0 {
		us = 0
	}
	return us
}

// Mark records a lifecycle instant on the job track.
func (t *JobTrace) Mark(name string, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	u := t.us(at)
	t.marks = append(t.marks, jobSpan{name: name, start: u, end: u})
}

// Phase records a lifecycle span on the job track.
func (t *JobTrace) Phase(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.phases = append(t.phases, jobSpan{name: name, start: t.us(start), end: t.us(end)})
}

// Cell records one grid cell's span. Safe to call from concurrent pool
// workers.
func (t *JobTrace) Cell(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cells = append(t.cells, jobSpan{name: name, start: t.us(start), end: t.us(end)})
}

// assignLanes packs spans onto the fewest non-overlapping lanes,
// first-fit in (start, end, name) order. Deterministic for a given span
// set regardless of the order Cell was called in.
func assignLanes(spans []jobSpan) (ordered []jobSpan, lane []int, lanes int) {
	ordered = append([]jobSpan(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end < b.end
		}
		return a.name < b.name
	})
	lane = make([]int, len(ordered))
	var laneEnd []int64
	for i, s := range ordered {
		placed := false
		for l, end := range laneEnd {
			if end <= s.start {
				lane[i], laneEnd[l] = l, s.end
				placed = true
				break
			}
		}
		if !placed {
			lane[i] = len(laneEnd)
			laneEnd = append(laneEnd, s.end)
		}
	}
	return ordered, lane, len(laneEnd)
}

// WriteJSON emits the timeline as Chrome trace-event JSON. Track 1 is
// the job lifecycle; tracks 2..N are cell lanes. Field order and event
// order are fixed (metadata, then job marks and phases sorted by start,
// then cells lane-packed in sorted order), so equal timelines render
// byte-identically — the golden test pins the layout.
func (t *JobTrace) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: no job trace recorded")
	}
	t.mu.Lock()
	marks := append([]jobSpan(nil), t.marks...)
	phases := append([]jobSpan(nil), t.phases...)
	cells := append([]jobSpan(nil), t.cells...)
	t.mu.Unlock()

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
		return err
	}
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}
	emit(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"impulse job"}}`)

	cellsOrdered, lane, lanes := assignLanes(cells)
	thread := func(tid int, name string) {
		emit(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			tid, strconv.Quote(name)))
		emit(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`,
			tid, tid-1))
	}
	thread(1, "job")
	for l := 0; l < lanes; l++ {
		thread(2+l, fmt.Sprintf("cells #%d", l+1))
	}

	// Job track: marks and phases merged, sorted by start (ties: marks
	// first, then name) for a stable layout.
	type jobEv struct {
		jobSpan
		instant bool
	}
	evs := make([]jobEv, 0, len(marks)+len(phases))
	for _, m := range marks {
		evs = append(evs, jobEv{m, true})
	}
	for _, p := range phases {
		evs = append(evs, jobEv{p, false})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].start != evs[j].start {
			return evs[i].start < evs[j].start
		}
		if evs[i].instant != evs[j].instant {
			return evs[i].instant
		}
		return evs[i].name < evs[j].name
	})
	for _, e := range evs {
		if e.instant {
			emit(fmt.Sprintf(`{"ph":"i","pid":1,"tid":1,"ts":%d,"s":"t","cat":"job","name":%s}`,
				e.start, strconv.Quote(e.name)))
			continue
		}
		dur := int64(1)
		if e.end > e.start {
			dur = e.end - e.start
		}
		emit(fmt.Sprintf(`{"ph":"X","pid":1,"tid":1,"ts":%d,"dur":%d,"cat":"job","name":%s}`,
			e.start, dur, strconv.Quote(e.name)))
	}
	for i, c := range cellsOrdered {
		dur := int64(1)
		if c.end > c.start {
			dur = c.end - c.start
		}
		emit(fmt.Sprintf(`{"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"cat":"cell","name":%s}`,
			2+lane[i], c.start, dur, strconv.Quote(c.name)))
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
