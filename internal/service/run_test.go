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

// TestSimSpecCanonical pins the canonical encoding and hash of
// representative sim specs, captured while Normalize still kept its own
// mode lists: cached results are keyed on them, so checking modes
// against the runner's table must not move one byte. Unknown modes,
// and workloads the service does not run, stay rejected.
func TestSimSpecCanonical(t *testing.T) {
	for _, tc := range []struct{ spec, canonical, hash string }{
		{`{"kind":"sim"}`,
			"kind=sim&family=&fast=false&format=&n=14000&nonzer=0&niter=1&cgits=8&shift=0&rcond=0&tile=0&dim=0&sweeps=0&workload=cg&mode=conventional&prefetch=none",
			"e1e503bdb0a722f0"},
		{`{"kind":"sim","workload":"cg","n":300,"cgits":2,"mode":"sg","prefetch":"both"}`,
			"kind=sim&family=&fast=false&format=&n=300&nonzer=0&niter=1&cgits=2&shift=0&rcond=0&tile=0&dim=0&sweeps=0&workload=cg&mode=sg&prefetch=both",
			"1e02b9aee3ab59ee"},
		{`{"kind":"sim","workload":"cg","mode":"recolor","niter":2,"tile":16,"prefetch":"mc"}`,
			"kind=sim&family=&fast=false&format=&n=14000&nonzer=0&niter=2&cgits=8&shift=0&rcond=0&tile=0&dim=0&sweeps=0&workload=cg&mode=recolor&prefetch=mc",
			"cfdca80df730626a"},
		{`{"kind":"sim","workload":"mmp"}`,
			"kind=sim&family=&fast=false&format=&n=256&nonzer=0&niter=0&cgits=0&shift=0&rcond=0&tile=32&dim=0&sweeps=0&workload=mmp&mode=nocopy&prefetch=none",
			"ab8f60f84f1c9e83"},
		{`{"kind":"sim","workload":"mmp","mode":"conventional","n":64,"tile":16}`,
			"kind=sim&family=&fast=false&format=&n=64&nonzer=0&niter=0&cgits=0&shift=0&rcond=0&tile=16&dim=0&sweeps=0&workload=mmp&mode=nocopy&prefetch=none",
			"49823425b8deca82"},
		{`{"kind":"sim","workload":"mmp","mode":"remap","prefetch":"both","cgits":4,"niter":2}`,
			"kind=sim&family=&fast=false&format=&n=256&nonzer=0&niter=0&cgits=0&shift=0&rcond=0&tile=32&dim=0&sweeps=0&workload=mmp&mode=remap&prefetch=both",
			"8b8a9faf7932a10a"},
		{`{"kind":"sim","workload":"diag"}`,
			"kind=sim&family=&fast=false&format=&n=512&nonzer=0&niter=0&cgits=0&shift=0&rcond=0&tile=0&dim=0&sweeps=0&workload=diag&mode=conventional&prefetch=none",
			"46aa32672843db93"},
		{`{"kind":"sim","workload":"diag","mode":"impulse","n":64,"cgits":3,"tile":8}`,
			"kind=sim&family=&fast=false&format=&n=64&nonzer=0&niter=0&cgits=0&shift=0&rcond=0&tile=0&dim=0&sweeps=0&workload=diag&mode=impulse&prefetch=none",
			"36be21b35bcedc1c"},
		{`{"kind":"sim","workload":"ipc","n":99,"mode":"impulse","prefetch":"l1"}`,
			"kind=sim&family=&fast=false&format=&n=0&nonzer=0&niter=0&cgits=0&shift=0&rcond=0&tile=0&dim=0&sweeps=0&workload=ipc&mode=impulse&prefetch=l1",
			"21fadd08e58ab23b"},
		{`{"kind":"sim","workload":"ipc","family":"sram","fast":true,"format":"json","nonzer":3,"shift":2,"rcond":0.5,"dim":5,"sweeps":2}`,
			"kind=sim&family=&fast=false&format=&n=0&nonzer=0&niter=0&cgits=0&shift=0&rcond=0&tile=0&dim=0&sweeps=0&workload=ipc&mode=conventional&prefetch=none",
			"ad2b2a816e09f9ed"},
	} {
		s, err := ParseSpec([]byte(tc.spec))
		if err != nil {
			t.Errorf("%s: %v", tc.spec, err)
			continue
		}
		if s.Canonical() != tc.canonical || s.Hash() != tc.hash {
			t.Errorf("%s:\n got %s %s\nwant %s %s", tc.spec, s.Canonical(), s.Hash(), tc.canonical, tc.hash)
		}
	}
	for _, spec := range []string{
		`{"kind":"sim","workload":"diag","mode":"foo"}`,
		`{"kind":"sim","workload":"cholesky"}`,
		`{"kind":"sim","workload":"mmp","mode":"impulse"}`,
		`{"kind":"sim","prefetch":"x"}`,
		`{"kind":"sim","workload":"spark","mode":"sg"}`,
		`{"kind":"sim","workload":"script"}`,
	} {
		if s, err := ParseSpec([]byte(spec)); err == nil {
			t.Errorf("%s accepted as %s", spec, s.Canonical())
		}
	}
}
