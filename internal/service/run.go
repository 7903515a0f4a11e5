package service

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"impulse/internal/colres"
	"impulse/internal/core"
	"impulse/internal/harness"
	"impulse/internal/obs"
	"impulse/internal/workloads"
)

// jobTraceKey carries the owning job's timeline through Execute, so the
// inputs phase (a sim job's matrix generation) and the render phase
// (grid → bytes) show up on the job track. Nil outside the service
// (direct Execute calls, CLIs); every JobTrace method is nil-safe.
type jobTraceKey struct{}

func withJobTrace(ctx context.Context, t *obs.JobTrace) context.Context {
	return context.WithValue(ctx, jobTraceKey{}, t)
}

func jobTraceFrom(ctx context.Context) *obs.JobTrace {
	t, _ := ctx.Value(jobTraceKey{}).(*obs.JobTrace)
	return t
}

// Result is a finished job's payload: the experiment's rendered output
// (byte-identical to the equivalent CLI invocation) plus the counter
// registry dump for every row the run measured (byte-identical to the
// CLIs' -counters output). Grid kinds additionally carry Columnar, the
// encoded columnar result blob the archive stores and every view is
// rendered from. A Result's byte slices are never modified once the job
// finishes: the archive keeps the same bytes.
type Result struct {
	Output   []byte
	Counters []byte
	MIME     string
	Columnar []byte
}

// rowChunkKey carries the service's per-cell SSE emitter through
// Execute: the harness row sink tees each finished row into it as an
// encoded columnar row chunk. Nil outside a daemon job.
type rowChunkKey struct{}

func withRowChunkSink(ctx context.Context, emit func(label string, chunk []byte)) context.Context {
	return context.WithValue(ctx, rowChunkKey{}, emit)
}

func rowChunkSinkFrom(ctx context.Context) func(label string, chunk []byte) {
	f, _ := ctx.Value(rowChunkKey{}).(func(label string, chunk []byte))
	return f
}

// chunkRow lowers one measured row to its columnar chunk form.
func chunkRow(r core.Row) colres.Row {
	h := &r.Stats.LoadLatency
	return colres.Row{
		Label:    r.Label,
		Cycles:   r.Cycles,
		Loads:    r.Stats.Loads,
		Stores:   r.Stats.Stores,
		BusBytes: r.Stats.BusBytes,
		P50:      h.Percentile(50),
		P95:      h.Percentile(95),
		P99:      h.Percentile(99),
		L1:       r.L1Ratio,
		L2:       r.L2Ratio,
		Mem:      r.MemRatio,
		AvgLoad:  r.AvgLoad,
	}
}

// Execute runs one normalized spec under ctx and returns its result.
// Each call collects rows into its own registry through a per-call row
// sink, so any number of Executes can run concurrently in one process —
// they share only the harness trace cache and worker-pool width, both
// of which are concurrency-safe by design.
func Execute(ctx context.Context, spec Spec, progress harness.Progress) (*Result, error) {
	var reg obs.Registry
	collect := core.CollectRows(&reg)
	sink := collect
	if emit := rowChunkSinkFrom(ctx); emit != nil {
		sink = func(r core.Row) {
			collect(r)
			emit(r.Label, colres.EncodeRow(chunkRow(r)))
		}
	}
	ctx = harness.WithRowSink(ctx, sink)

	var out bytes.Buffer
	mime := "text/plain; charset=utf-8"
	var err error
	var grid *harness.Grid // set by the table kinds; rendered below
	switch spec.Kind {
	case "table1":
		par := workloads.CGParams{N: spec.N, Nonzer: spec.Nonzer, Niter: spec.Niter,
			CGIts: spec.CGIts, Shift: spec.Shift, RCond: spec.RCond}
		grid, err = harness.Table1(ctx, par, progress)
	case "table2":
		par := workloads.MMPParams{N: spec.N, Tile: spec.Tile}
		grid, err = harness.Table2(ctx, par, progress)
	case "figure1":
		err = harness.Figure1(ctx, spec.Dim, spec.Sweeps, &out)
	case "sweep":
		err = harness.RunFamily(ctx, spec.Family, spec.Fast, &out)
	case "sim":
		err = runSim(ctx, spec, &out, sink)
	default:
		err = fmt.Errorf("unknown kind %q", spec.Kind)
	}
	var columnar []byte
	if err == nil && grid != nil {
		// Encode the columns once — the write-once moment of the result
		// pipeline — then materialize the requested view *from the blob*,
		// so the production path exercises exactly what a later lazy view
		// of the archived bytes will run (the goldens pin both views
		// byte-identical to the pre-columnar renderings).
		renderStart := time.Now()
		columnar = grid.Columnar()
		mime, err = writeGridView(&out, columnar, spec.Format)
		jobTraceFrom(ctx).Phase("render", renderStart, time.Now())
	}
	if err != nil {
		return nil, err
	}
	var counters bytes.Buffer
	if err := reg.WriteText(&counters); err != nil {
		return nil, err
	}
	output := out.Bytes()
	if mime == colres.ContentType {
		output = columnar // the view is the blob: hold its bytes once
	}
	return &Result{Output: output, Counters: counters.Bytes(), MIME: mime, Columnar: columnar}, nil
}

// writeGridView renders one view of an encoded columnar blob. Format
// "columnar" is the blob itself — the zero-re-encode wire form.
func writeGridView(out *bytes.Buffer, blob []byte, format string) (string, error) {
	if format == "columnar" {
		_, err := out.Write(blob)
		return colres.ContentType, err
	}
	doc, err := colres.Decode(blob)
	if err != nil {
		return "", fmt.Errorf("service: decoding freshly encoded result: %w", err)
	}
	if format == "json" {
		return "application/json", colres.WriteGridJSON(doc, out)
	}
	return "text/plain; charset=utf-8", colres.RenderText(doc, out)
}

// runSim runs one single-configuration spec through harness.RunSim,
// the runner cmd/impulse-sim calls, so a sim job prints exactly what
// the command prints. Its timeline records cg's matrix generation as
// an inputs phase.
func runSim(ctx context.Context, spec Spec, out *bytes.Buffer, collect func(core.Row)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p := harness.SimParams{Workload: spec.Workload, Mode: spec.Mode, Prefetch: spec.Prefetch,
		N: spec.N, Tile: spec.Tile, CGIts: spec.CGIts, Niter: spec.Niter}
	return harness.RunSim(p, func(opts core.Options) (*core.System, error) {
		opts.RowObserver = collect
		return core.NewSystem(opts)
	}, jobTraceFrom(ctx), out)
}
