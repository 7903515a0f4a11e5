package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"impulse/internal/workloads"
)

// TestPerturbedGoldenRaisesFailRatio makes the benchmark's golden gate
// concrete: a grid whose simulated counters match its golden passes,
// and the same grid against a golden with one counter changed fails
// exactly that cell, naming the counter.
func TestPerturbedGoldenRaisesFailRatio(t *testing.T) {
	g := gridGeom{name: "mmp-n32-t16", mmp: &workloads.MMPParams{N: 32, Tile: 16}}
	grid, err := g.run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenOf(g.name, grid)

	r := newReport()
	oneGrid(r, g, want, nil, nil)
	if r.attempted != 12 || r.failed != 0 {
		t.Fatalf("matching golden: %d of %d cells failed: %v", r.failed, r.attempted, r.errs)
	}

	want.Cells[5].Stats.DRAMRowHits++
	r = newReport()
	oneGrid(r, g, want, nil, nil)
	if r.attempted != 12 || r.failed != 1 {
		t.Fatalf("perturbed golden: %d of %d cells failed, want 1 of 12: %v", r.failed, r.attempted, r.errs)
	}
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "DRAMRowHits") {
		t.Fatalf("failure report %q does not name the perturbed counter", r.errs)
	}
}

// TestCommittedGoldensCoverEveryGeometry checks that each geometry a
// seed can pick has a golden with all twelve cells.
func TestCommittedGoldensCoverEveryGeometry(t *testing.T) {
	for _, g := range allGeometries() {
		want, err := loadGolden(g.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Cells) != 12 || want.Geometry != g.name {
			t.Errorf("%s: golden has %d cells for geometry %q", g.name, len(want.Cells), want.Geometry)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the program
// prints and the ones BENCHMARK.json declares the same, in name and
// unit.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}
