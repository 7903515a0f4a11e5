package harness

import (
	"context"
	"fmt"
	"io"

	"impulse/internal/core"
	"impulse/internal/sim"
	"impulse/internal/stats"
	"impulse/internal/workloads"
)

// CacheGeometrySweep is a classic cache sensitivity study: the
// conventional CG workload runs across L2 capacities, reporting
// how the paper's conventional-system hit-ratio profile depends on cache
// geometry. It locates the paper's operating point (multiplicand bigger
// than L1, smaller than L2) on the capacity curve. L2 capacity is pure
// timing, so every size shares one stream key and executes as its own
// cell.
func CacheGeometrySweep(ctx context.Context, par workloads.CGParams, l2Sizes []uint64, w io.Writer) error {
	m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	wantZeta, wantRNorm := workloads.RefCG(m, par)

	cols := make([]string, len(l2Sizes))
	for i, size := range l2Sizes {
		cols[i] = fmt.Sprintf("L2=%dK", size>>10)
	}
	rows, err := runCells(ctx, len(l2Sizes), func(i int) cellSpec {
		cfg := sim.DefaultConfig()
		cfg.L2.Bytes = l2Sizes[i]
		return cellSpec{
			key:     cgKey(par, workloads.CGConventional, &cfg),
			opts:    core.Options{Controller: core.Conventional, Config: &cfg},
			relabel: relabelPf(core.PrefetchNone),
			exec: func(s *core.System) (core.Row, error) {
				res, err := workloads.RunCG(s, par, workloads.CGConventional, m)
				if err != nil {
					return core.Row{}, err
				}
				if res.Zeta != wantZeta || res.RNorm != wantRNorm {
					return core.Row{}, fmt.Errorf("harness: geometry sweep computed zeta=%v rnorm=%v, reference %v/%v",
						res.Zeta, res.RNorm, wantZeta, wantRNorm)
				}
				return res.Row, nil
			},
		}
	})
	if err != nil {
		return err
	}
	l1r := make([]float64, len(l2Sizes))
	l2r := make([]float64, len(l2Sizes))
	memr := make([]float64, len(l2Sizes))
	avg := make([]interface{}, len(l2Sizes))
	for i, row := range rows {
		l1r[i], l2r[i], memr[i] = row.L1Ratio, row.L2Ratio, row.MemRatio
		avg[i] = row.AvgLoad
	}
	t := stats.NewTable(
		fmt.Sprintf("L2-capacity sensitivity (conventional CG, n=%d)", par.N),
		cols...)
	t.AddPercentRow("L1 hit ratio", l1r...)
	t.AddPercentRow("L2 hit ratio", l2r...)
	t.AddPercentRow("mem hit ratio", memr...)
	t.AddRow("avg load time", avg...)
	_, err = io.WriteString(w, t.Render())
	return err
}
