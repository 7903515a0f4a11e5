package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"impulse/internal/harness"
	"impulse/internal/stats"
)

// goldenFS holds one file per grid geometry a seed can pick: every
// cell's simulated row (cycles and every stats.MemStats counter) as the
// simulator produced it when the file was written. The simulator is
// deterministic, so any difference is a modelling change, never noise.
//
//go:embed golden/*.json
var goldenFS embed.FS

type goldenCell struct {
	Section string         `json:"section"`
	Column  string         `json:"column"`
	Label   string         `json:"label"`
	Cycles  uint64         `json:"cycles"`
	Stats   stats.MemStats `json:"stats"`
}

type golden struct {
	Geometry string       `json:"geometry"`
	Cells    []goldenCell `json:"cells"`
}

// columnNames are the grid's prefetch columns in render order.
var columnNames = []string{"Standard", "Impulse", "L1 cache", "both"}

func loadGolden(name string) (*golden, error) {
	data, err := goldenFS.ReadFile("golden/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	return &g, nil
}

// goldenOf flattens a grid into golden cells, section-major.
func goldenOf(name string, g *harness.Grid) *golden {
	out := &golden{Geometry: name}
	for si, row := range g.Cells {
		for ci, c := range row {
			out.Cells = append(out.Cells, goldenCell{Section: g.Sections[si], Column: columnNames[ci],
				Label: c.Row.Label, Cycles: c.Row.Cycles, Stats: c.Row.Stats})
		}
	}
	return out
}

// checkGolden compares every cell of g with want and returns one line
// per failing cell naming the first counter that differs. A cell the
// grid lacks counts as failed.
func checkGolden(g *harness.Grid, want *golden) []string {
	got := goldenOf(want.Geometry, g)
	var fails []string
	for i, w := range want.Cells {
		if i >= len(got.Cells) {
			fails = append(fails, fmt.Sprintf("%s / %s: missing from the grid", w.Section, w.Column))
			continue
		}
		if diff := diffCell(got.Cells[i], w); diff != "" {
			fails = append(fails, fmt.Sprintf("%s / %s: %s", w.Section, w.Column, diff))
		}
	}
	return fails
}

// diffCell names the first field where got differs from want.
func diffCell(got, want goldenCell) string {
	switch {
	case got.Label != want.Label:
		return fmt.Sprintf("label %q, golden %q", got.Label, want.Label)
	case got.Cycles != want.Cycles:
		return fmt.Sprintf("cycles %d, golden %d", got.Cycles, want.Cycles)
	}
	gv, wv := reflect.ValueOf(got.Stats), reflect.ValueOf(want.Stats)
	for i := 0; i < gv.NumField(); i++ {
		name, a, b := gv.Type().Field(i).Name, gv.Field(i), wv.Field(i)
		if a.Kind() != reflect.Uint64 {
			if !reflect.DeepEqual(a.Interface(), b.Interface()) {
				return fmt.Sprintf("%s %v, golden %v", name, a.Interface(), b.Interface())
			}
			continue
		}
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s %d, golden %d", name, a.Uint(), b.Uint())
		}
	}
	return ""
}

// writeAllGoldens runs every geometry a seed can pick once and writes
// its golden file into dir.
func writeAllGoldens(dir string) error {
	for _, g := range allGeometries() {
		grid, err := g.run(nil, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		data, err := json.MarshalIndent(goldenOf(g.name, grid), "", " ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, g.name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	return nil
}
