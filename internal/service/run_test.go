package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// coldSimSpec is one cold cg sim job of the size a routed fleet's
// uncached requests run: a fresh matrix, two CG iterations.
func coldSimSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(`{"kind":"sim","workload":"cg","n":1800,"cgits":2,"mode":"conventional","prefetch":"l1"}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestColdSimJobAllocBudget bounds the heap allocations of one cold cg
// sim job through Execute, as TestCellSetupAllocBudget does for a grid
// cell. A matrix generator that allocates per row or per entry exceeds
// it more than tenfold.
func TestColdSimJobAllocBudget(t *testing.T) {
	spec := coldSimSpec(t)
	const budget = 2000
	avg := testing.AllocsPerRun(2, func() {
		if _, err := Execute(context.Background(), spec, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Errorf("cold cg sim job allocates %.0f times, budget %d", avg, budget)
	}
}

// TestSimJobTimelineInputsPhase: a cg sim job's timeline splits its
// running phase, recording matrix generation as an inputs phase inside
// it.
func TestSimJobTimelineInputsPhase(t *testing.T) {
	s := New(Config{QueueDepth: 4, Executors: 1})
	defer s.Close()
	spec := coldSimSpec(t)
	spec.N = 240
	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)

	var buf bytes.Buffer
	if err := j.Trace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	phases := map[string][2]int64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			phases[ev.Name] = [2]int64{ev.Ts, ev.Ts + ev.Dur}
		}
	}
	run, ok := phases["running"]
	if !ok {
		t.Fatalf("no running phase:\n%s", buf.Bytes())
	}
	in, ok := phases["inputs"]
	if !ok {
		t.Fatalf("no inputs phase:\n%s", buf.Bytes())
	}
	if in[0] < run[0] || in[1] > run[1] {
		t.Errorf("inputs phase [%d, %d] µs not inside running [%d, %d]", in[0], in[1], run[0], run[1])
	}
}
