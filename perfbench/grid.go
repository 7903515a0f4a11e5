package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"impulse"
	"impulse/internal/harness"
	"impulse/internal/workloads"
)

// cgDims are the Table 1 dimensions a cg-grid seed picks from: Class A
// size (the paper's n=14000) within ±1%, so every seed does nearly the
// same work on a different generated matrix. Each has a golden file.
var cgDims = []int{13860, 13930, 14000, 14070, 14140}

// gridGeom is one grid workload's input: a Table 1 or Table 2 geometry.
type gridGeom struct {
	name string // golden file stem
	cg   *workloads.CGParams
	mmp  *workloads.MMPParams
}

func cgGeom(seed int64) gridGeom {
	n := cgDims[int(uint64(seed)%uint64(len(cgDims)))]
	par := workloads.CGParams{N: n, Nonzer: 7, Niter: 1, CGIts: 2, Shift: 20, RCond: 0.1}
	return gridGeom{name: fmt.Sprintf("cg-n%d", n), cg: &par}
}

// mmpGeom ignores the seed: Table 2's regime (no-copy tiles thrashing on
// conflict misses, copy and remap near 2x) comes from the power-of-two
// row stride of n=256, so the geometry is fixed.
func mmpGeom(int64) gridGeom {
	par := workloads.MMPParams{N: 256, Tile: 32}
	return gridGeom{name: "mmp-n256-t32", mmp: &par}
}

func allGeometries() []gridGeom {
	var gs []gridGeom
	for i := range cgDims {
		gs = append(gs, cgGeom(int64(i)))
	}
	return append(gs, mmpGeom(0))
}

// run calls the Table through the impulse façade.
func (g gridGeom) run(ctx context.Context, progress harness.Progress) (*harness.Grid, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g.cg != nil {
		return impulse.Table1Ctx(ctx, *g.cg, progress)
	}
	return impulse.Table2Ctx(ctx, *g.mmp, progress)
}

// gridWorkload is a grid workload over the geometry its seed picks; its
// set-up is loading that geometry's golden file.
func gridWorkload(geom func(seed int64) gridGeom) workload {
	return workload{
		run: func(o options, r *report) error { return runGrid(o, r, geom(o.seed)) },
		setupOnly: func(o options) error {
			_, err := loadGolden(geom(o.seed).name)
			return err
		},
	}
}

// runGrid is the closed loop with one caller: grid after grid, each
// from an empty trace cache like a fresh CLI run, until the next grid
// would overrun --seconds. wall_s is the median grid.
func runGrid(o options, r *report, g gridGeom) error {
	setups, err := setupSamples(o, 9)
	if err != nil {
		return err
	}
	want, err := loadGolden(g.name)
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups))
	r.printf("workload %s seed %d geometry %s workers %d", o.workload, o.seed, g.name, harness.Workers())
	if o.trace {
		return traceGrid(o, r, g, want)
	}
	budget := time.Duration(o.seconds) * time.Second
	heap := startHeapPeak()
	t0 := time.Now()
	var walls, cpus, steals []float64
	for {
		cpu0, steal0 := processCPU(), hostSteal()
		res := oneGrid(r, g, want, nil, nil)
		walls = append(walls, res.wall.Seconds())
		cpus = append(cpus, (processCPU() - cpu0).Seconds())
		steals = append(steals, (hostSteal() - steal0).Seconds())
		next := time.Duration(median(walls) * float64(time.Second))
		if time.Since(t0)+next > budget {
			break
		}
	}
	r.set("live_heap_mb", retainedHeapMB())
	r.printf("peak_heap_mb %.1f MB (sampled at collections; not gated)", heap.finish())
	r.set("wall_s", median(walls))
	r.printf("wall_s samples %.3f (n=%d grids)", walls, len(walls))
	r.printf("cpu_s samples %.3f (process CPU per grid, with the heap release before it; not gated)", cpus)
	r.printf("steal_s samples %.3f (host steal over all CPUs during each grid; noise diagnostic)", steals)
	return nil
}

// gridRun is one grid's outcome and, in a traced run, its boundary times.
type gridRun struct {
	grid                   *harness.Grid
	wall                   time.Duration
	start, firstCell       time.Time
	verifyStart, verifyEnd time.Time // the golden check; the render follows it
	end                    time.Time
	cells                  []harness.CellEvent
}

// oneGrid runs one grid from an empty trace cache: the Table call, the
// golden check of every cell, and the text render. ctx carries the
// cell observer in a traced run; traced also captures the prologue end
// through the progress callback.
func oneGrid(r *report, g gridGeom, want *golden, ctx context.Context, cells *cellLog) gridRun {
	harness.ResetTraceCache()
	debug.FreeOSMemory()
	var res gridRun
	var progress harness.Progress
	var once sync.Once
	if cells != nil {
		progress = func(string, string) { once.Do(func() { res.firstCell = time.Now() }) }
	}
	res.start = time.Now()
	grid, err := g.run(ctx, progress)
	res.verifyStart = time.Now()
	r.attempted += len(want.Cells)
	if err != nil {
		r.failed += len(want.Cells)
		r.errs = append(r.errs, fmt.Sprintf("%s: harness rejected the grid: %v", g.name, err))
		res.end = time.Now()
		res.wall = res.end.Sub(res.start)
		return res
	}
	for _, f := range checkGolden(grid, want) {
		r.fail("%s: %s", g.name, f)
	}
	res.verifyEnd = time.Now()
	var buf bytes.Buffer
	if err := grid.Render(&buf); err != nil {
		r.errs = append(r.errs, fmt.Sprintf("%s: render: %v", g.name, err))
	}
	res.end = time.Now()
	res.wall = res.end.Sub(res.start)
	res.grid = grid
	if cells != nil {
		res.cells = cells.take()
	}
	return res
}

// cellLog collects the harness's cell events (WithCellObserver), which
// arrive from the pool's worker goroutines.
type cellLog struct {
	mu     sync.Mutex
	events []harness.CellEvent
}

func (c *cellLog) observe(ev harness.CellEvent) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func (c *cellLog) take() []harness.CellEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := c.events
	c.events = nil
	return ev
}

// traceGrid is a grid workload's traced run: one untraced grid for the
// tracing overhead, one traced grid with its traces persisted (for their
// exact size), then direct probes of the layers the grid's result flows
// through.
func traceGrid(o options, r *report, g gridGeom, want *golden) error {
	untraced := oneGrid(r, g, want, nil, nil)

	tr := &tracer{}
	recDir := filepath.Join(o.out, "traces")
	impulse.SetTraceRecordDir(recDir)
	log := &cellLog{}
	ctx := harness.WithCellObserver(context.Background(), log.observe)
	traced := oneGrid(r, g, want, ctx, log)
	impulse.SetTraceRecordDir("")
	traceBytes, err := dirBytes(recDir)
	if err != nil {
		return err
	}
	os.RemoveAll(recDir)
	if traced.grid == nil {
		return fmt.Errorf("%s: traced grid failed: %v", g.name, r.errs)
	}

	spans := gridSpans(traced)
	for _, s := range spans {
		tr.add(s)
	}
	cellMetrics(r, traced, spans)
	r.set("tracefile.trace_mb", float64(traceBytes)/(1<<20))
	r.set("trace.overhead_pct", 100*(traced.wall.Seconds()-untraced.wall.Seconds())/untraced.wall.Seconds())
	r.printf("traced grid %.3fs, untraced %.3fs", traced.wall.Seconds(), untraced.wall.Seconds())

	if err := probeSim(r, tr); err != nil {
		return err
	}
	if err := probeColres(r, tr, [][]byte{traced.grid.Columnar()}, 200); err != nil {
		return err
	}
	if err := probeStore(r, tr, filepath.Join(o.out, "store-probe"), [][]byte{traced.grid.Columnar()}, 20); err != nil {
		return err
	}
	return writeTrace(o, r, tr)
}

// gridSpans turns one traced grid into spans: the grid, its prologue,
// each cell by trace-cache mode, each shared decode, the golden check
// and the render.
func gridSpans(g gridRun) []span {
	spans := []span{
		{name: "grid", track: "caller", start: g.start, end: g.end},
		{name: "workloads.prologue", track: "caller", start: g.start, end: g.firstCell},
		{name: "golden.verify", track: "caller", start: g.verifyStart, end: g.verifyEnd},
		{name: "grid.render", track: "caller", start: g.verifyEnd, end: g.end},
	}
	for _, ev := range g.cells {
		track := "cell " + ev.Key
		if ev.Batch != "" {
			track = "batch " + ev.Batch
			if ev.Mode != "record" {
				track = fmt.Sprintf("batch %s lane %d", ev.Batch, ev.BatchIndex)
			}
		}
		spans = append(spans, span{name: "cell." + ev.Mode, track: track, id: ev.Key, start: ev.Start, end: ev.End})
		if ev.Decode > 0 {
			spans = append(spans, span{name: "tracefile.decode", track: "batch " + ev.Batch, id: ev.Key,
				start: ev.Start.Add(-ev.Decode), end: ev.Start})
		}
	}
	return spans
}

// cellMetrics derives the harness, tracefile, workloads, sim-count and
// ledger metrics from one traced grid.
func cellMetrics(r *report, g gridRun, spans []span) {
	var recorded, replayed, executed int
	var recordS, replayS, executeS, decodeS float64
	busy := map[string][2]time.Time{} // pool task -> [first start, last end]
	widen := func(task string, a, b time.Time) {
		iv, ok := busy[task]
		if !ok || a.Before(iv[0]) {
			iv[0] = a
		}
		if !ok || b.After(iv[1]) {
			iv[1] = b
		}
		busy[task] = iv
	}
	for _, ev := range g.cells {
		d := ev.End.Sub(ev.Start).Seconds()
		switch ev.Mode {
		case "record":
			recorded++
			recordS += d
		case "execute":
			executed++
			executeS += d
		default: // "replay", "replayed-vectorized"
			replayed++
			replayS += d
		}
		decodeS += ev.Decode.Seconds()
		task := ev.Batch
		if task == "" {
			task = ev.Key + ev.Start.String()
		}
		widen(task, ev.Start.Add(-ev.Decode), ev.End)
	}
	r.set("harness.cells_recorded", float64(recorded))
	r.set("harness.cells_replayed", float64(replayed))
	r.set("harness.cells_executed", float64(executed))
	r.set("harness.record_s", recordS)
	r.set("harness.replay_s", replayS)
	r.set("harness.execute_s", executeS)
	r.set("tracefile.decode_s", decodeS)

	// Pool idle: worker-time inside the cell phase with no task running.
	var first, last time.Time
	var busySum time.Duration
	var taskSpans []span
	for _, iv := range busy {
		if first.IsZero() || iv[0].Before(first) {
			first = iv[0]
		}
		if iv[1].After(last) {
			last = iv[1]
		}
		busySum += iv[1].Sub(iv[0])
		taskSpans = append(taskSpans, span{start: iv[0], end: iv[1]})
	}
	if capacity := time.Duration(harness.Workers()) * last.Sub(first); capacity > 0 {
		r.set("harness.pool_idle_pct", 100*float64(capacity-busySum)/float64(capacity))
	}
	if !g.firstCell.IsZero() {
		r.set("workloads.prologue_s", g.firstCell.Sub(g.start).Seconds())
	}

	var accesses float64
	sum := map[string]float64{}
	for _, row := range g.grid.Cells {
		for _, c := range row {
			st := c.Row.Stats
			accesses += float64(st.Loads + st.Stores)
			for name, v := range map[string]uint64{
				"sim.cycles": c.Row.Cycles, "sim.loads": st.Loads, "sim.stores": st.Stores,
				"sim.l1_load_hits": st.L1LoadHits, "sim.l2_load_hits": st.L2LoadHits,
				"sim.mem_loads": st.MemLoads, "sim.tlb_misses": st.TLBMisses, "sim.bus_bytes": st.BusBytes,
				"sim.dram_row_hits": st.DRAMRowHits, "sim.dram_row_misses": st.DRAMRowMisses,
				"sim.shadow_reads": st.ShadowReads, "sim.mc_prefetch_hits": st.MCPrefetchHits,
				"sim.sdesc_pref_hits": st.SDescPrefHits, "sim.flushed_lines": st.FlushedLines,
			} {
				sum[name] += float64(v)
			}
		}
	}
	for name, v := range sum {
		r.set(name, v)
	}
	if accesses > 0 {
		r.set("sim.ns_per_access", (recordS+replayS+executeS+decodeS)*1e9/accesses)
	}

	// Ledger: grid wall time that no layer span accounts for.
	layer := append(taskSpans, spans[1:4]...) // prologue, verify, render
	wall := g.end.Sub(g.start)
	if wall > 0 {
		r.set("ledger.unaccounted_pct", 100*float64(wall-covered(layer, g.start, g.end))/float64(wall))
	}
}

// dirBytes sums the sizes of the regular files in dir (0 if absent).
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// writeTrace writes the run's spans as Perfetto JSON next to the build
// output, where it outlives the run's scratch directory.
func writeTrace(o options, r *report, tr *tracer) error {
	path := filepath.Join(filepath.Dir(o.out), fmt.Sprintf("perfbench-%s-seed%d.trace.json", o.workload, o.seed))
	if err := tr.writePerfetto(path); err != nil {
		return err
	}
	r.printf("perfetto trace %s (%d spans; open in ui.perfetto.dev)", path, len(tr.all()))
	return nil
}
