// Package harness regenerates the paper's evaluation artifacts: Table 1
// (NAS conjugate gradient under three memory configurations and four
// prefetch policies), Table 2 (tiled matrix-matrix product under three
// tiling strategies and four prefetch policies), the Figure 1 diagonal
// microkernel, and the extension/ablation experiments indexed in
// DESIGN.md. Table, figure and sweep runs whose workload computes a
// numerical result verify it against the host reference before
// reporting timing. RunSim, the single-configuration runner behind
// cmd/impulse-sim and the service's sim jobs, prints the result beside
// its row instead, marking mmp's and cholesky's ok or MISMATCH against
// the reference.
package harness

import (
	"context"
	"fmt"
	"io"

	"impulse/internal/colres"
	"impulse/internal/core"
	"impulse/internal/stats"
	"impulse/internal/workloads"
)

// prefetchColumns are the four columns of Tables 1 and 2, in paper order:
// "Standard", "Impulse" (controller prefetch), "L1 cache", "both".
var prefetchColumns = []core.PrefetchPolicy{
	core.PrefetchNone, core.PrefetchMC, core.PrefetchL1, core.PrefetchBoth,
}

// columnNames as printed in the paper.
var columnNames = []string{"Standard", "Impulse", "L1 cache", "both"}

// controllerFor picks the controller personality for a cell: remapping or
// controller prefetching both require Impulse hardware; otherwise the
// machine is a conventional system. (An Impulse controller with neither
// enabled behaves identically by design — "our design tries to avoid
// adding latency to normal accesses", §2.2 — which the tests verify.)
func controllerFor(remapped bool, pf core.PrefetchPolicy) core.ControllerKind {
	if remapped || pf == core.PrefetchMC || pf == core.PrefetchBoth {
		return core.Impulse
	}
	return core.Conventional
}

// Cell is one measured configuration.
type Cell struct {
	Row     core.Row
	Speedup float64
}

// Grid is a table of results: Sections x prefetch columns.
type Grid struct {
	Title    string
	Sections []string
	Cells    [][]Cell // [section][column]
}

// Render prints the grid in the paper's layout — the text view over the
// columnar document (colres.RenderText), so CLI output and a view
// rendered from an archived blob are byte-identical by construction.
func (g *Grid) Render(w io.Writer) error {
	return colres.RenderText(g.Doc(), w)
}

// Baseline returns the conventional/no-prefetch cell.
func (g *Grid) Baseline() Cell { return g.Cells[0][0] }

// fillSpeedups computes every cell's speedup against the baseline.
func (g *Grid) fillSpeedups() {
	base := g.Cells[0][0].Row
	for si := range g.Cells {
		for ci := range g.Cells[si] {
			g.Cells[si][ci].Speedup = core.Speedup(base, g.Cells[si][ci].Row)
		}
	}
}

// Progress is an optional callback invoked before each cell runs. With
// a parallel pool (SetWorkers > 1) it is called from worker goroutines,
// concurrently and in no particular order; implementations must be safe
// for that (a plain fmt.Fprintf to stderr is).
type Progress func(section, column string)

// Table1 regenerates the paper's Table 1 ("Simulated results for the NAS
// Class A conjugate gradient benchmark, with various memory system
// configurations") at the given geometry. The workload's zeta and
// residual are verified against the host reference for every cell.
func Table1(ctx context.Context, par workloads.CGParams, progress Progress) (*Grid, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	wantZeta, wantRNorm := workloads.RefCG(m, par)

	sections := []struct {
		name string
		mode workloads.CGMode
	}{
		{"Conventional memory system", workloads.CGConventional},
		{"Impulse with scatter/gather remapping", workloads.CGScatterGather},
		{"Impulse with page recoloring", workloads.CGRecolor},
	}
	g := &Grid{Title: fmt.Sprintf("Table 1: NAS conjugate gradient (n=%d, nnz=%d, %d CG iterations)",
		par.N, m.NNZ(), par.Niter*par.CGIts)}
	nc := len(prefetchColumns)
	// The four prefetch columns of a section share one reference stream
	// (the stream key) and differ in their cell identity.
	rows, err := runCells(ctx, len(sections)*nc, func(idx int) cellSpec {
		sec, ci := sections[idx/nc], idx%nc
		pf := prefetchColumns[ci]
		if progress != nil {
			progress(sec.name, columnNames[ci])
		}
		return cellSpec{
			key: cgKey(par, sec.mode, nil),
			opts: core.Options{
				Controller: controllerFor(sec.mode != workloads.CGConventional, pf),
				Prefetch:   pf,
			},
			relabel: relabelPf(pf),
			exec: func(s *core.System) (core.Row, error) {
				res, err := workloads.RunCG(s, par, sec.mode, m)
				if err != nil {
					return core.Row{}, fmt.Errorf("harness: %s: %w", sec.name, err)
				}
				if res.Zeta != wantZeta || res.RNorm != wantRNorm {
					return core.Row{}, fmt.Errorf("harness: %s computed zeta=%v rnorm=%v, reference %v/%v",
						sec.name, res.Zeta, res.RNorm, wantZeta, wantRNorm)
				}
				return res.Row, nil
			},
		}
	})
	if err != nil {
		return nil, err
	}
	for si, sec := range sections {
		g.Sections = append(g.Sections, sec.name)
		cells := make([]Cell, nc)
		for ci := range cells {
			cells[ci] = Cell{Row: rows[si*nc+ci]}
		}
		g.Cells = append(g.Cells, cells)
	}
	g.fillSpeedups()
	return g, nil
}

// Table2 regenerates the paper's Table 2 ("Simulated results for tiled
// matrix-matrix product"). Checksums are verified against the host
// reference for every cell.
func Table2(ctx context.Context, par workloads.MMPParams, progress Progress) (*Grid, error) {
	want := workloads.RefMMP(par)
	sections := []struct {
		name string
		mode workloads.MMPMode
	}{
		{"Conventional memory system", workloads.MMPNoCopyTiled},
		{"Conventional memory system with software tile copying", workloads.MMPCopyTiled},
		{"Impulse with tile remapping", workloads.MMPTileRemap},
	}
	g := &Grid{Title: fmt.Sprintf("Table 2: tiled matrix-matrix product (%dx%d, %dx%d tiles)",
		par.N, par.N, par.Tile, par.Tile)}
	nc := len(prefetchColumns)
	rows, err := runCells(ctx, len(sections)*nc, func(idx int) cellSpec {
		sec, ci := sections[idx/nc], idx%nc
		pf := prefetchColumns[ci]
		if progress != nil {
			progress(sec.name, columnNames[ci])
		}
		return cellSpec{
			key: mmpKey(par, sec.mode, nil),
			opts: core.Options{
				Controller: controllerFor(sec.mode == workloads.MMPTileRemap, pf),
				Prefetch:   pf,
			},
			relabel: relabelPf(pf),
			exec: func(s *core.System) (core.Row, error) {
				res, err := workloads.RunMMP(s, par, sec.mode)
				if err != nil {
					return core.Row{}, fmt.Errorf("harness: %s: %w", sec.name, err)
				}
				if res.Checksum != want {
					return core.Row{}, fmt.Errorf("harness: %s checksum %v != reference %v",
						sec.name, res.Checksum, want)
				}
				return res.Row, nil
			},
		}
	})
	if err != nil {
		return nil, err
	}
	for si, sec := range sections {
		g.Sections = append(g.Sections, sec.name)
		cells := make([]Cell, nc)
		for ci := range cells {
			cells[ci] = Cell{Row: rows[si*nc+ci]}
		}
		g.Cells = append(g.Cells, cells)
	}
	g.fillSpeedups()
	return g, nil
}

// Figure1 quantifies the paper's introductory diagonal example: cycles,
// bus traffic, and hit ratios for a diagonal traversal, conventional vs
// Impulse strided remapping.
func Figure1(ctx context.Context, dim, sweeps int, w io.Writer) error {
	want := workloads.RefDiagonal(dim)
	kinds := []core.ControllerKind{core.Conventional, core.Impulse}
	rows, err := RunCtx(ctx, len(kinds), func(i int, tc *TaskCtx) (workloads.DiagResult, error) {
		s, err := tc.NewSystem(core.Options{Controller: kinds[i]})
		if err != nil {
			return workloads.DiagResult{}, err
		}
		return workloads.RunDiagonal(s, dim, sweeps, kinds[i] == core.Impulse)
	})
	if err != nil {
		return err
	}
	rc, ri := rows[0], rows[1]
	if rc.Sum != want || ri.Sum != want {
		return fmt.Errorf("harness: figure 1 sums %v/%v != reference %v", rc.Sum, ri.Sum, want)
	}
	t := stats.NewTable(
		fmt.Sprintf("Figure 1: accessing the diagonal of a %dx%d matrix (%d sweeps)", dim, dim, sweeps),
		"Conventional", "Impulse")
	t.AddRow("cycles", stats.FormatCycles(rc.Row.Cycles), stats.FormatCycles(ri.Row.Cycles))
	t.AddRow("bus bytes", rc.Row.Stats.BusBytes, ri.Row.Stats.BusBytes)
	t.AddPercentRow("L1 hit ratio", rc.Row.L1Ratio, ri.Row.L1Ratio)
	t.AddRow("avg load time", rc.Row.AvgLoad, ri.Row.AvgLoad)
	t.AddRow("speedup", "—", fmt.Sprintf("%.2f", core.Speedup(rc.Row, ri.Row)))
	_, err = io.WriteString(w, t.Render())
	return err
}
