package harness

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"impulse/internal/addr"
	"impulse/internal/core"
	"impulse/internal/dram"
	"impulse/internal/sim"
	"impulse/internal/stats"
	"impulse/internal/workloads"
)

// SchedulerAblation compares the paper's evaluated in-order DRAM
// scheduler against the reordering scheduler sketched as future work in
// §2.2 ("reorder word-grained requests to exploit DRAM page locality ...
// schedule requests to exploit bank-level parallelism"), on the
// gather-dominated scatter/gather CG configuration where the scheduler
// sees the most irregular address streams ("the set of physical addresses
// that is generated for scatter/gather is much more irregular than
// strided vector accesses", §5).
func SchedulerAblation(ctx context.Context, par workloads.CGParams, w io.Writer) error {
	m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	orders := []dram.Order{dram.InOrder, dram.RowMajor}
	rows, err := runCells(ctx, len(orders), func(i int) cellSpec {
		cfg := sim.DefaultConfig()
		cfg.MC.Order = orders[i]
		return cellSpec{
			key: cgKey(par, workloads.CGScatterGather, &cfg),
			opts: core.Options{
				Controller: core.Impulse,
				Prefetch:   core.PrefetchMC,
				Config:     &cfg,
			},
			exec: func(s *core.System) (core.Row, error) {
				res, err := workloads.RunCG(s, par, workloads.CGScatterGather, m)
				if err != nil {
					return core.Row{}, err
				}
				return res.Row, nil
			},
		}
	})
	if err != nil {
		return err
	}
	inOrder, rowMajor := rows[0], rows[1]
	t := stats.NewTable("DRAM scheduler ablation (scatter/gather CG, controller prefetch)",
		"in-order (paper)", "row-major (future work)")
	t.AddRow("cycles", stats.FormatCycles(inOrder.Cycles), stats.FormatCycles(rowMajor.Cycles))
	t.AddRow("DRAM row hits", inOrder.Stats.DRAMRowHits, rowMajor.Stats.DRAMRowHits)
	t.AddRow("DRAM row misses", inOrder.Stats.DRAMRowMisses, rowMajor.Stats.DRAMRowMisses)
	t.AddRow("avg load time", inOrder.AvgLoad, rowMajor.AvgLoad)
	t.AddRow("speedup", "—", fmt.Sprintf("%.3f", core.Speedup(inOrder, rowMajor)))
	if _, err = io.WriteString(w, t.Render()); err != nil {
		return err
	}
	if _, err = io.WriteString(w, "\n"); err != nil {
		return err
	}
	return schedulerAdversarial(ctx, w)
}

// schedulerAdversarial drives the scheduler comparison with the access
// pattern reordering is built for: a gather whose consecutive elements
// alternate between two distant rows of the same banks, so in-order issue
// thrashes every row buffer while row-major grouping keeps rows open.
func schedulerAdversarial(ctx context.Context, w io.Writer) error {
	const elems = 8192
	orders := []dram.Order{dram.InOrder, dram.RowMajor}
	rows, err := runCells(ctx, len(orders), func(i int) cellSpec {
		order := orders[i]
		cfg := sim.DefaultConfig()
		cfg.MC.Order = order
		key := fmt.Sprintf("sched-adv-e%d-line%d-banks%d-row%d-%s",
			elems, cfg.DRAM.LineBytes, cfg.DRAM.Banks, cfg.DRAM.RowBytes, streamSig(&cfg))
		return cellSpec{
			key:  key,
			opts: core.Options{Controller: core.Impulse, Config: &cfg},
			exec: func(s *core.System) (core.Row, error) {
				// Consecutive elements alternate between two rows of the same
				// bank: even elements walk one row region in same-bank line
				// steps (banks x lineBytes apart), odd elements walk a region a
				// full row-span away. In-order issue ping-pongs each row buffer
				// 16 times per gathered cache line; row-major grouping opens
				// each row once.
				lineElems := cfg.DRAM.LineBytes / 8
				bankStep := cfg.DRAM.Banks * lineElems            // same bank, next line
				rowSpan := cfg.DRAM.RowBytes * cfg.DRAM.Banks / 8 // same bank, next row region
				const walk = 128                                  // lines walked per region
				xN := rowSpan + walk*bankStep + lineElems
				x, err := s.Alloc(xN*8, 0)
				if err != nil {
					return core.Row{}, err
				}
				vec, err := s.Alloc(elems*4, 0)
				if err != nil {
					return core.Row{}, err
				}
				for k := uint64(0); k < elems; k++ {
					idx := (k%2)*rowSpan + ((k/2)%walk)*bankStep
					s.Store32(vec+addr.VAddr(4*k), uint32(idx))
				}
				alias, err := s.MapScatterGather(x, xN*8, 8, vec, elems, 0)
				if err != nil {
					return core.Row{}, err
				}
				sec := s.BeginSection()
				for k := uint64(0); k < elems; k++ {
					s.LoadF64(alias + addr.VAddr(8*k))
					s.Tick(1)
				}
				return sec.End(order.String())
			},
		}
	})
	if err != nil {
		return err
	}
	inOrder, rowMajor := rows[0], rows[1]
	t := stats.NewTable("DRAM scheduler ablation (adversarial row-alternating gather)",
		"in-order (paper)", "row-major (future work)")
	t.AddRow("cycles", stats.FormatCycles(inOrder.Cycles), stats.FormatCycles(rowMajor.Cycles))
	t.AddRow("DRAM row hits", inOrder.Stats.DRAMRowHits, rowMajor.Stats.DRAMRowHits)
	t.AddRow("DRAM row misses", inOrder.Stats.DRAMRowMisses, rowMajor.Stats.DRAMRowMisses)
	t.AddRow("avg load time", inOrder.AvgLoad, rowMajor.AvgLoad)
	t.AddRow("speedup", "—", fmt.Sprintf("%.3f", core.Speedup(inOrder, rowMajor)))
	_, err = io.WriteString(w, t.Render())
	return err
}

// SuperpageExperiment measures the TLB benefit of building superpages
// from non-contiguous physical pages via Impulse direct mappings — the
// companion-paper extension ([21], §6) that reported 5-20% improvements
// on SPECint95. The workload is a page-strided walk over a region far
// beyond TLB reach.
func SuperpageExperiment(ctx context.Context, pages, sweeps int, w io.Writer) error {
	run := func(super bool, tc *TaskCtx) (core.Row, error) {
		s, err := tc.NewSystem(core.Options{Controller: core.Impulse})
		if err != nil {
			return core.Row{}, err
		}
		bytes := uint64(pages) * addr.PageSize
		x, err := s.Alloc(bytes, 0)
		if err != nil {
			return core.Row{}, err
		}
		if super {
			if err := s.MapSuperpage(x, bytes); err != nil {
				return core.Row{}, err
			}
		}
		sec := s.BeginSection()
		var sum uint64
		for sweep := 0; sweep < sweeps; sweep++ {
			for off := uint64(0); off < bytes; off += addr.PageSize {
				sum += s.Load64(x + addr.VAddr(off))
				s.Tick(2)
			}
		}
		label := "4K pages"
		if super {
			label = "superpage"
		}
		return sec.End(label)
	}
	rows, err := RunCtx(ctx, 2, func(i int, tc *TaskCtx) (core.Row, error) {
		return run(i == 1, tc)
	})
	if err != nil {
		return err
	}
	base, sp := rows[0], rows[1]
	t := stats.NewTable(
		fmt.Sprintf("Superpages from non-contiguous pages ([21]): %d-page strided walk, %d sweeps", pages, sweeps),
		"4K pages", "Impulse superpage")
	t.AddRow("cycles", stats.FormatCycles(base.Cycles), stats.FormatCycles(sp.Cycles))
	t.AddRow("TLB misses", base.Stats.TLBMisses, sp.Stats.TLBMisses)
	t.AddRow("TLB walk cycles", base.Stats.TLBWalkCost, sp.Stats.TLBWalkCost)
	t.AddRow("speedup", "—", fmt.Sprintf("%.2f", core.Speedup(base, sp)))
	_, err = io.WriteString(w, t.Render())
	return err
}

// IPCExperiment quantifies §6's no-copy message gather.
func IPCExperiment(ctx context.Context, bufCount, wordsPerBuf, messages int, w io.Writer) error {
	want := workloads.RefIPC(bufCount, wordsPerBuf, messages)
	kinds := []core.ControllerKind{core.Conventional, core.Impulse}
	rows, err := RunCtx(ctx, len(kinds), func(i int, tc *TaskCtx) (workloads.IPCResult, error) {
		s, err := tc.NewSystem(core.Options{Controller: kinds[i]})
		if err != nil {
			return workloads.IPCResult{}, err
		}
		return workloads.RunIPC(s, bufCount, wordsPerBuf, messages, kinds[i] == core.Impulse)
	})
	if err != nil {
		return err
	}
	rc, ri := rows[0], rows[1]
	if rc.Checksum != want || ri.Checksum != want {
		return fmt.Errorf("harness: IPC checksums %v/%v != %v", rc.Checksum, ri.Checksum, want)
	}
	t := stats.NewTable(
		fmt.Sprintf("IPC message gather (§6): %d buffers x %d words, %d messages", bufCount, wordsPerBuf, messages),
		"software gather", "Impulse gather")
	t.AddRow("cycles", stats.FormatCycles(rc.Row.Cycles), stats.FormatCycles(ri.Row.Cycles))
	t.AddRow("loads issued", rc.Row.Stats.Loads, ri.Row.Stats.Loads)
	t.AddRow("stores issued", rc.Row.Stats.Stores, ri.Row.Stats.Stores)
	t.AddRow("bus bytes", rc.Row.Stats.BusBytes, ri.Row.Stats.BusBytes)
	t.AddRow("speedup", "—", fmt.Sprintf("%.2f", core.Speedup(rc.Row, ri.Row)))
	_, err = io.WriteString(w, t.Render())
	return err
}

// PrefetchBufferSweep varies the controller's non-remapped prefetch SRAM
// (the paper fixes it at 2 KB = 16 lines) and reports performance on a
// multi-stream workload — the ablation behind §2.2's sizing choice. A
// single stream needs only one lookahead line; capacity matters when
// several streams interleave (SMVP reads DATA, COLUMN, ROWS, and writes
// the product vector concurrently), because each live stream needs its
// own buffered line to survive until its next use.
func PrefetchBufferSweep(ctx context.Context, sizes []uint64, w io.Writer) error {
	streams, perStream := SRAMWorkload()
	cols := make([]string, len(sizes))
	for i, size := range sizes {
		cols[i] = fmt.Sprintf("%dB", size)
	}
	rows, err := runCells(ctx, len(sizes), func(i int) cellSpec {
		cfg := sim.DefaultConfig()
		cfg.MC.SRAMBytes = sizes[i]
		key := fmt.Sprintf("sramsweep-streams%d-per%d-%s", streams, perStream, streamSig(&cfg))
		return cellSpec{
			key: key,
			opts: core.Options{
				Controller: core.Impulse,
				Prefetch:   core.PrefetchMC,
				Config:     &cfg,
			},
			exec: func(s *core.System) (core.Row, error) {
				bases := make([]addr.VAddr, streams)
				for j := range bases {
					var err error
					if bases[j], err = s.Alloc(perStream, 0); err != nil {
						return core.Row{}, err
					}
				}
				sec := s.BeginSection()
				for off := uint64(0); off < perStream; off += 8 {
					for j := range bases {
						s.Load64(bases[j] + addr.VAddr(off))
						s.Tick(1)
					}
				}
				return sec.End(cols[i])
			},
		}
	})
	if err != nil {
		return err
	}
	cycles := make([]interface{}, len(sizes))
	hits := make([]interface{}, len(sizes))
	for i, row := range rows {
		cycles[i] = stats.FormatCycles(row.Cycles)
		hits[i] = row.Stats.MCPrefetchHits
	}
	t := stats.NewTable(
		fmt.Sprintf("Controller prefetch SRAM sweep (%d interleaved streams)", streams), cols...)
	t.AddRow("cycles", cycles...)
	t.AddRow("SRAM hits", hits...)
	_, err = io.WriteString(w, t.Render())
	return err
}

// GatherStrideSweep reports gather cost as a function of access
// irregularity: a gather alias over indices at increasing strides shows
// how DRAM page locality decays and controller prefetching compensates —
// the behaviour behind §2.2's per-descriptor prefetch buffers.
func GatherStrideSweep(ctx context.Context, strides []int, elems int, w io.Writer) error {
	cols := make([]string, len(strides))
	for i, stride := range strides {
		cols[i] = fmt.Sprintf("stride %d", stride)
	}
	// Task order matches the serial loop: stride-major, no-prefetch first.
	rows, err := runCells(ctx, 2*len(strides), func(idx int) cellSpec {
		i, pf := idx/2, idx%2 == 1
		stride := strides[i]
		opt := core.Options{Controller: core.Impulse}
		if pf {
			opt.Prefetch = core.PrefetchMC
		}
		key := fmt.Sprintf("gstride-s%d-e%d-%s", stride, elems, streamSig(nil))
		return cellSpec{
			key:  key,
			opts: opt,
			exec: func(s *core.System) (core.Row, error) {
				xN := uint64(elems * stride)
				x, err := s.Alloc(xN*8, 0)
				if err != nil {
					return core.Row{}, err
				}
				vec, err := s.Alloc(uint64(elems)*4, 0)
				if err != nil {
					return core.Row{}, err
				}
				for k := 0; k < elems; k++ {
					s.Store32(vec+addr.VAddr(4*k), uint32(k*stride))
				}
				alias, err := s.MapScatterGather(x, xN*8, 8, vec, uint64(elems), 0)
				if err != nil {
					return core.Row{}, err
				}
				sec := s.BeginSection()
				for k := 0; k < elems; k++ {
					s.LoadF64(alias + addr.VAddr(8*k))
					s.Tick(1)
				}
				return sec.End(cols[i])
			},
		}
	})
	if err != nil {
		return err
	}
	noPF := make([]interface{}, len(strides))
	withPF := make([]interface{}, len(strides))
	for i := range strides {
		noPF[i] = rows[2*i].AvgLoad
		withPF[i] = rows[2*i+1].AvgLoad
	}
	t := stats.NewTable(fmt.Sprintf("Gather avg load time vs indirection stride (%d elements)", elems), cols...)
	t.AddRow("no prefetch", noPF...)
	t.AddRow("controller prefetch", withPF...)
	_, err = io.WriteString(w, t.Render())
	return err
}

// CholeskyExperiment extends Table 2's comparison to tiled Cholesky
// factorization, the other dense kernel §3.2 names. Checksums are
// verified against the host reference.
func CholeskyExperiment(ctx context.Context, n, tile int, w io.Writer) error {
	want := workloads.RefCholesky(n, tile)
	configs := []struct {
		kind core.ControllerKind
		mode workloads.CholeskyMode
	}{
		{core.Conventional, workloads.CholNoCopy},
		{core.Conventional, workloads.CholCopy},
		{core.Impulse, workloads.CholRemap},
	}
	rows, err := RunCtx(ctx, len(configs), func(i int, tc *TaskCtx) (core.Row, error) {
		s, err := tc.NewSystem(core.Options{Controller: configs[i].kind})
		if err != nil {
			return core.Row{}, err
		}
		res, err := workloads.RunCholesky(s, n, tile, configs[i].mode)
		if err != nil {
			return core.Row{}, err
		}
		if res.Checksum != want {
			return core.Row{}, fmt.Errorf("harness: cholesky %v checksum %v != reference %v", configs[i].mode, res.Checksum, want)
		}
		return res.Row, nil
	})
	if err != nil {
		return err
	}
	nocopy, cp, remap := rows[0], rows[1], rows[2]
	t := stats.NewTable(
		fmt.Sprintf("Tiled Cholesky factorization (§3.2 extension): %dx%d, %dx%d tiles", n, n, tile, tile),
		"no-copy", "tile copy", "Impulse remap")
	t.AddRow("cycles", stats.FormatCycles(nocopy.Cycles), stats.FormatCycles(cp.Cycles), stats.FormatCycles(remap.Cycles))
	t.AddPercentRow("L1 hit ratio", nocopy.L1Ratio, cp.L1Ratio, remap.L1Ratio)
	t.AddRow("avg load time", nocopy.AvgLoad, cp.AvgLoad, remap.AvgLoad)
	t.AddRow("speedup", "—",
		fmt.Sprintf("%.2f", core.Speedup(nocopy, cp)),
		fmt.Sprintf("%.2f", core.Speedup(nocopy, remap)))
	_, err = io.WriteString(w, t.Render())
	return err
}

// SparkExperiment runs the Spark98-style symmetric SMVP (§3.1's other
// motivating application [17]): the gather of x[COLUMN[k]] moves to the
// controller while the scatter-accumulate into y stays on the CPU, so
// the load count is unchanged and only locality improves — a harder
// target than CG, reported as such.
func SparkExperiment(ctx context.Context, nodesX, nodesY, iters int, w io.Writer) error {
	mesh := workloads.MakeSparkMesh(nodesX, nodesY)
	want := workloads.RefSpark(mesh, iters)
	configs := []struct {
		kind   core.ControllerKind
		pf     core.PrefetchPolicy
		gather bool
	}{
		{core.Conventional, core.PrefetchNone, false},
		{core.Impulse, core.PrefetchNone, true},
		{core.Impulse, core.PrefetchMC, true},
	}
	rows, err := runCells(ctx, len(configs), func(i int) cellSpec {
		gather := configs[i].gather
		key := fmt.Sprintf("spark-x%d-y%d-it%d-g%v-%s", nodesX, nodesY, iters, gather, streamSig(nil))
		return cellSpec{
			key:  key,
			opts: core.Options{Controller: configs[i].kind, Prefetch: configs[i].pf},
			exec: func(s *core.System) (core.Row, error) {
				res, err := workloads.RunSpark(s, mesh, iters, gather)
				if err != nil {
					return core.Row{}, err
				}
				if res.Checksum != want {
					return core.Row{}, fmt.Errorf("harness: spark checksum %v != reference %v", res.Checksum, want)
				}
				return res.Row, nil
			},
		}
	})
	if err != nil {
		return err
	}
	conv, sg, sgPF := rows[0], rows[1], rows[2]
	t := stats.NewTable(
		fmt.Sprintf("Spark98-style symmetric SMVP (§3.1 [17]): %s, %d iterations", mesh, iters),
		"conventional", "scatter/gather", "s/g + prefetch")
	t.AddRow("cycles", stats.FormatCycles(conv.Cycles), stats.FormatCycles(sg.Cycles), stats.FormatCycles(sgPF.Cycles))
	t.AddPercentRow("L1 hit ratio", conv.L1Ratio, sg.L1Ratio, sgPF.L1Ratio)
	t.AddRow("avg load time", conv.AvgLoad, sg.AvgLoad, sgPF.AvgLoad)
	t.AddRow("speedup", "—",
		fmt.Sprintf("%.2f", core.Speedup(conv, sg)),
		fmt.Sprintf("%.2f", core.Speedup(conv, sgPF)))
	_, err = io.WriteString(w, t.Render())
	return err
}

// SuperscalarExperiment tests the paper's concluding prediction:
// "Speedups should be greater on superscalar machines (our simulation
// model was single-issue), because non-memory instructions will be
// effectively cheaper. That is, on superscalars, memory will be even
// more of a bottleneck, and Impulse will therefore be able to improve
// performance even more." The issue width scales non-memory instruction
// throughput; the scatter/gather speedup over conventional is reported
// per width.
func SuperscalarExperiment(ctx context.Context, par workloads.CGParams, widths []uint64, w io.Writer) error {
	m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	cols := make([]string, len(widths))
	for i, width := range widths {
		cols[i] = fmt.Sprintf("width %d", width)
	}
	// Task order matches the serial loop: width-major, conventional first.
	rows, err := runCells(ctx, 2*len(widths), func(idx int) cellSpec {
		width, impulse := widths[idx/2], idx%2 == 1
		cfg := sim.DefaultConfig()
		cfg.IssueWidth = width
		opt := core.Options{Controller: core.Conventional, Config: &cfg}
		mode := workloads.CGConventional
		if impulse {
			opt.Controller, opt.Prefetch = core.Impulse, core.PrefetchMC
			mode = workloads.CGScatterGather
		}
		return cellSpec{
			key:  cgKey(par, mode, &cfg),
			opts: opt,
			exec: func(s *core.System) (core.Row, error) {
				res, err := workloads.RunCG(s, par, mode, m)
				if err != nil {
					return core.Row{}, err
				}
				return res.Row, nil
			},
		}
	})
	if err != nil {
		return err
	}
	convRow := make([]interface{}, len(widths))
	sgRow := make([]interface{}, len(widths))
	speedups := make([]interface{}, len(widths))
	for i := range widths {
		conv, sg := rows[2*i], rows[2*i+1]
		convRow[i] = stats.FormatCycles(conv.Cycles)
		sgRow[i] = stats.FormatCycles(sg.Cycles)
		speedups[i] = fmt.Sprintf("%.2f", core.Speedup(conv, sg))
	}
	t := stats.NewTable(
		"Superscalar prediction (§6): scatter/gather+prefetch speedup vs issue width", cols...)
	t.AddRow("conventional", convRow...)
	t.AddRow("impulse s/g+pf", sgRow...)
	t.AddRow("speedup", speedups...)
	_, err = io.WriteString(w, t.Render())
	return err
}

// PagePolicyAblation compares open-page (the reproduction's calibrated
// default, matching paper-era controllers) against closed-page row
// management, on a stream (favors open rows) and on scatter/gather CG
// (mixed locality).
func PagePolicyAblation(ctx context.Context, par workloads.CGParams, w io.Writer) error {
	m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	policies := []dram.PagePolicy{dram.OpenPage, dram.ClosedPage}
	rows, err := runCells(ctx, len(policies), func(i int) cellSpec {
		cfg := sim.DefaultConfig()
		cfg.DRAM.Policy = policies[i]
		return cellSpec{
			key:  cgKey(par, workloads.CGScatterGather, &cfg),
			opts: core.Options{Controller: core.Impulse, Prefetch: core.PrefetchMC, Config: &cfg},
			exec: func(s *core.System) (core.Row, error) {
				res, err := workloads.RunCG(s, par, workloads.CGScatterGather, m)
				if err != nil {
					return core.Row{}, err
				}
				return res.Row, nil
			},
		}
	})
	if err != nil {
		return err
	}
	open_, closed := rows[0], rows[1]
	t := stats.NewTable("DRAM page-policy ablation (scatter/gather CG, controller prefetch)",
		"open-page (default)", "closed-page")
	t.AddRow("cycles", stats.FormatCycles(open_.Cycles), stats.FormatCycles(closed.Cycles))
	t.AddRow("DRAM row hits", open_.Stats.DRAMRowHits, closed.Stats.DRAMRowHits)
	t.AddRow("avg load time", open_.AvgLoad, closed.AvgLoad)
	t.AddRow("speedup", "—", fmt.Sprintf("%.3f", core.Speedup(open_, closed)))
	_, err = io.WriteString(w, t.Render())
	return err
}

// DBExperiment runs the database scans (abstract: "regularly strided,
// memory-bound applications of commercial importance, such as database
// and multimedia programs").
func DBExperiment(ctx context.Context, p workloads.DBParams, selectivity int, w io.Writer) error {
	wantProj := workloads.RefDBProjection(p)
	wantIdx := workloads.RefDBIndexScan(p, selectivity)
	// Task order matches the serial loop: projection conv/imp, index conv/imp.
	rows, err := RunCtx(ctx, 4, func(i int, tc *TaskCtx) (core.Row, error) {
		idx, impulse := i/2 == 1, i%2 == 1
		opt := core.Options{Controller: core.Conventional}
		if impulse {
			opt.Controller, opt.Prefetch = core.Impulse, core.PrefetchMC
		}
		s, err := tc.NewSystem(opt)
		if err != nil {
			return core.Row{}, err
		}
		if idx {
			r, err := workloads.RunDBIndexScan(s, p, selectivity, impulse)
			if err != nil {
				return core.Row{}, err
			}
			if r.Sum != wantIdx {
				return core.Row{}, fmt.Errorf("harness: db index sum %v != %v", r.Sum, wantIdx)
			}
			return r.Row, nil
		}
		r, err := workloads.RunDBProjection(s, p, impulse)
		if err != nil {
			return core.Row{}, err
		}
		if r.Sum != wantProj {
			return core.Row{}, fmt.Errorf("harness: db projection sum %v != %v", r.Sum, wantProj)
		}
		return r.Row, nil
	})
	if err != nil {
		return err
	}
	type cell struct{ conv, imp core.Row }
	proj := cell{conv: rows[0], imp: rows[1]}
	idx := cell{conv: rows[2], imp: rows[3]}
	t := stats.NewTable(
		fmt.Sprintf("Database scans (abstract's 'commercial importance'): %d records x %dB, 1/%d selectivity",
			p.Records, p.RecordBytes, selectivity),
		"projection conv", "projection imp", "index conv", "index imp")
	t.AddRow("cycles",
		stats.FormatCycles(proj.conv.Cycles), stats.FormatCycles(proj.imp.Cycles),
		stats.FormatCycles(idx.conv.Cycles), stats.FormatCycles(idx.imp.Cycles))
	t.AddRow("bus bytes", proj.conv.Stats.BusBytes, proj.imp.Stats.BusBytes,
		idx.conv.Stats.BusBytes, idx.imp.Stats.BusBytes)
	t.AddRow("speedup", "—", fmt.Sprintf("%.2f", core.Speedup(proj.conv, proj.imp)),
		"—", fmt.Sprintf("%.2f", core.Speedup(idx.conv, idx.imp)))
	_, err = io.WriteString(w, t.Render())
	return err
}

// RandomGatherCheck is a randomized end-to-end verification pass: random
// gather mappings are created and read back through the full machine,
// comparing against direct memory contents. It returns the number of
// elements verified. Used by cmd/impulse-sim -selftest.
func RandomGatherCheck(seed int64, rounds int) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	verified := 0
	for r := 0; r < rounds; r++ {
		s, err := core.NewSystem(core.Options{
			Controller: core.Impulse,
			Prefetch:   core.PrefetchPolicy(rng.Intn(4)),
		})
		if err != nil {
			return verified, err
		}
		xN := uint64(rng.Intn(20000) + 100)
		n := uint64(rng.Intn(5000) + 10)
		x, err := s.Alloc(xN*8, 0)
		if err != nil {
			return verified, err
		}
		vec, err := s.Alloc(n*4, 0)
		if err != nil {
			return verified, err
		}
		idx := make([]uint32, n)
		for k := range idx {
			idx[k] = uint32(rng.Intn(int(xN)))
			s.Store32(vec+addr.VAddr(4*k), idx[k])
		}
		for j := uint64(0); j < xN; j++ {
			s.StoreF64(x+addr.VAddr(8*j), float64(j)*1.5+float64(r))
		}
		alias, err := s.MapScatterGather(x, xN*8, 8, vec, n, 0)
		if err != nil {
			return verified, err
		}
		for k := uint64(0); k < n; k++ {
			got := s.LoadF64(alias + addr.VAddr(8*k))
			want := float64(idx[k])*1.5 + float64(r)
			if got != want {
				return verified, fmt.Errorf("harness: round %d element %d: %v != %v", r, k, got, want)
			}
			verified++
		}
	}
	return verified, nil
}
