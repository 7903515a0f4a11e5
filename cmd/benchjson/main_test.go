package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSummarizeMedians folds five runs of one benchmark and one run of
// another: the repeated one becomes its medians with the interquartile
// range of ns/op, and the lone one stays as it was, without a spread.
func TestSummarizeMedians(t *testing.T) {
	var runs []record
	for _, line := range []string{
		"BenchmarkA-2 10 50 ns/op 8 B/op 1 allocs/op 7 sim-cycles",
		"BenchmarkB-2 3 900 ns/op 0 B/op 0 allocs/op",
		"BenchmarkA-2 12 10 ns/op 8 B/op 1 allocs/op 7 sim-cycles",
		"BenchmarkA-2 14 30 ns/op 8 B/op 1 allocs/op 7 sim-cycles",
		"BenchmarkA-2 11 20 ns/op 8 B/op 1 allocs/op 7 sim-cycles",
		"BenchmarkA-2 13 40 ns/op 8 B/op 1 allocs/op 7 sim-cycles",
	} {
		r, ok := parseLine(line)
		if !ok {
			t.Fatalf("parseLine(%q) failed", line)
		}
		runs = append(runs, r)
	}
	got := summarize(runs)
	if len(got) != 2 || got[0].Name != "A" || got[1].Name != "B" {
		t.Fatalf("summarize = %+v, want A then B", got)
	}
	a := got[0]
	if a.NsPerOp != 30 || a.NsPerOpIQR != 20 || a.Runs != 5 || a.Iterations != 12 ||
		a.BytesPerOp != 8 || a.AllocsPerOp != 1 || a.Metrics["sim-cycles"] != 7 {
		t.Errorf("A = %+v, want median 30 ns/op, IQR 20, 5 runs, 12 iterations, 8 B, 1 alloc, 7 sim-cycles", a)
	}
	if b := got[1]; b.NsPerOp != 900 || b.NsPerOpIQR != 0 || b.Runs != 0 {
		t.Errorf("B = %+v, want the lone run unchanged", b)
	}
}

// TestDiffSpread checks the regression rule: a median that rises by more
// than the baseline's spread plus the threshold is flagged, one inside
// it is not, and a baseline of one run compares against the threshold
// alone, as every baseline did before spreads were recorded.
func TestDiffSpread(t *testing.T) {
	base := []record{
		{Name: "Spread", NsPerOp: 100, NsPerOpIQR: 20, Runs: 5},
		{Name: "Lone", NsPerOp: 100},
	}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spread, lone float64
		flagged      []string
	}{
		{129, 109, nil},                // within 20 % + 10 % and within 10 %
		{131, 109, []string{"Spread"}}, // beyond 20 % + 10 %
		{129, 111, []string{"Lone"}},   // a baseline without a spread: 10 % alone
		{131, 111, []string{"Spread", "Lone"}},
	} {
		fresh := []record{{Name: "Spread", NsPerOp: tc.spread}, {Name: "Lone", NsPerOp: tc.lone}}
		err := diff(io.Discard, path, fresh, 10)
		for _, name := range []string{"Spread", "Lone"} {
			want := false
			for _, f := range tc.flagged {
				want = want || f == name
			}
			if got := err != nil && strings.Contains(err.Error(), name+" ("); got != want {
				t.Errorf("Spread %v, Lone %v: %s flagged %v, want %v (err %v)", tc.spread, tc.lone, name, got, want, err)
			}
		}
	}
}
