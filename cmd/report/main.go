// Command report regenerates the complete evaluation in one run — both
// paper tables, the Figure 1 microbenchmark, and every extension and
// ablation — as a single markdown-ish document (the data behind
// EXPERIMENTS.md). With -fast it uses reduced geometries (~30 s);
// without, the full defaults (~5 min).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"impulse"
	"impulse/internal/core"
	"impulse/internal/harness"
	"impulse/internal/obs"
	"impulse/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	fast := flag.Bool("fast", false, "reduced geometries (~30s instead of ~5min)")
	out := flag.String("o", "", "write to file instead of stdout")
	svg := flag.String("svg", "", "also write the Table 1/2 speedup charts as SVG files with this prefix")
	counters := flag.String("counters", "", "dump every measured row's counters to this file after the run (\"-\" for stdout)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for experiment rows (output is identical for any value)")
	flag.Parse()
	harness.SetWorkers(*jobs)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	var reg obs.Registry
	if *counters != "" {
		core.SetRowObserver(core.CollectRows(&reg))
	}

	cgPar := impulse.CGPaperGeometry()
	cgPar.CGIts = 8
	mmpPar := impulse.MMPDefault()
	sweepCG := workloads.CGParams{N: 4096, Nonzer: 6, Niter: 1, CGIts: 4, Shift: 10, RCond: 0.1}
	ssPar := workloads.CGParams{N: 14000, Nonzer: 7, Niter: 1, CGIts: 3, Shift: 20, RCond: 0.1}
	sparkX, sparkY := 300, 300
	dbPar := workloads.DBDefault()
	cholN := 256
	if *fast {
		cgPar = workloads.CGParams{N: 4096, Nonzer: 5, Niter: 1, CGIts: 3, Shift: 10, RCond: 0.1}
		mmpPar = impulse.MMPParams{N: 128, Tile: 32}
		sweepCG.N, sweepCG.CGIts = 2048, 2
		ssPar = sweepCG
		sparkX, sparkY = 120, 120
		dbPar.Records = 16 << 10
		cholN = 128
	}

	ctx := context.Background()
	start := time.Now()
	section := func(title string, f func() error) {
		fmt.Fprintf(w, "\n## %s\n\n```\n", title)
		if err := f(); err != nil {
			log.Fatalf("%s: %v", title, err)
		}
		fmt.Fprintf(w, "```\n")
		fmt.Fprintf(os.Stderr, "report: %-28s done (%.1fs elapsed)\n", title, time.Since(start).Seconds())
	}

	fmt.Fprintf(w, "# Impulse reproduction report\n\nGenerated by cmd/report (fast=%v).\n", *fast)

	writeSVG := func(name string, g *impulse.Grid) error {
		if *svg == "" {
			return nil
		}
		f, err := os.Create(*svg + name + ".svg")
		if err != nil {
			return err
		}
		defer f.Close()
		return harness.SpeedupChart(g, f)
	}
	section("Table 1: NAS conjugate gradient", func() error {
		g, err := impulse.Table1(cgPar, nil)
		if err != nil {
			return err
		}
		if err := writeSVG("table1", g); err != nil {
			return err
		}
		return g.Render(w)
	})
	section("Table 2: tiled matrix-matrix product", func() error {
		g, err := impulse.Table2(mmpPar, nil)
		if err != nil {
			return err
		}
		if err := writeSVG("table2", g); err != nil {
			return err
		}
		return g.Render(w)
	})
	section("Figure 1: diagonal access", func() error {
		return impulse.Figure1(512, 4, w)
	})
	section("DRAM scheduler ablation", func() error {
		return harness.SchedulerAblation(ctx, sweepCG, w)
	})
	section("Superpages", func() error {
		return harness.SuperpageExperiment(ctx, 2048, 4, w)
	})
	section("IPC message gather", func() error {
		return harness.IPCExperiment(ctx, 32, 1024, 4, w)
	})
	section("Prefetch SRAM sweep", func() error {
		return harness.PrefetchBufferSweep(ctx, []uint64{256, 512, 1024, 2048, 4096}, w)
	})
	section("Gather stride sweep", func() error {
		return harness.GatherStrideSweep(ctx, []int{1, 4, 16}, 8192, w)
	})
	section("Tiled Cholesky", func() error {
		return harness.CholeskyExperiment(ctx, cholN, 32, w)
	})
	section("Spark98-style SMVP", func() error {
		return harness.SparkExperiment(ctx, sparkX, sparkY, 1, w)
	})
	section("Database scans", func() error {
		return harness.DBExperiment(ctx, dbPar, 16, w)
	})
	section("Superscalar prediction", func() error {
		return harness.SuperscalarExperiment(ctx, ssPar, []uint64{1, 2, 4}, w)
	})
	fmt.Fprintf(os.Stderr, "report: complete in %.1fs\n", time.Since(start).Seconds())

	if *counters != "" {
		cw := io.Writer(os.Stdout)
		if *counters != "-" {
			f, err := os.Create(*counters)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			cw = f
		}
		if err := reg.WriteText(cw); err != nil {
			log.Fatal(err)
		}
	}
}
