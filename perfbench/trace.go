package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary, recorded by the
// benchmark's own code around a call into the program.
type span struct {
	name  string // layer operation, e.g. "cell.record", "router"
	track string // Perfetto track the span is drawn on
	id    string // request ID or cell key; spans of one request share it
	start time.Time
	end   time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// untraced run: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered returns the length of the union of the spans' intervals
// clipped to [from, to]: the wall time at least one of them accounts for.
func covered(spans []span, from, to time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.start, s.end
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writePerfetto writes the spans as Chrome trace-event JSON, which
// ui.perfetto.dev and chrome://tracing open: one complete ("X") event
// per span, one named track per span track.
func (t *tracer) writePerfetto(path string) error {
	spans := t.all()
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].start
	for _, s := range spans {
		if s.start.Before(t0) {
			t0 = s.start
		}
	}
	tids := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for _, s := range spans {
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.track}})
		}
		ev := event{Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:  float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3}
		if s.id != "" {
			ev.Args = map[string]any{"id": s.id}
		}
		events = append(events, ev)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
