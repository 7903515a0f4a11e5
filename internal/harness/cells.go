// Grid cells. Every table and sweep cell is one pool task that builds its
// own machine and executes its workload. Two mechanisms sit around that:
//
//   - A bounded, single-flight memo of finished cell rows, keyed by the
//     cell's full identity: its reference-stream key plus the controller,
//     prefetch policy, costs and the whole machine configuration. A later
//     run that reaches an identical cell — a daemon serving one geometry
//     in several formats, a sweep family repeating another family's cell
//     — re-emits the stored rows instead of simulating again. Simulation
//     is deterministic, so a reused row is the row execution would have
//     produced.
//   - The cross-process trace workflow (-trace-record / -trace-replay).
//     Under -trace-record the first cell of each reference stream to start
//     executes under a tracefile v2 recorder and persists the stream; the
//     stream's other cells execute beside it. Under -trace-replay a cell
//     whose stream is on disk replays it on its own machine, cycle- and
//     counter-identical to execution (the differential tests in
//     internal/tracefile pin this), including Impulse shadow runs, whose
//     indirection vectors travel inside the trace as a memory image.
package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"impulse/internal/core"
	"impulse/internal/obs"
	"impulse/internal/sim"
	"impulse/internal/tracefile"
	"impulse/internal/workloads"
)

var (
	traceRecordDir string
	traceReplayDir string

	// recording holds the stream keys whose recording a cell has claimed
	// in this process (-trace-record): one recording per stream.
	recording sync.Map

	memo cellMemo
)

// SetTraceRecordDir makes the first cell of each reference stream record
// the stream and persist it to dir as <key>.imptrc (the -trace-record
// flag). Empty disables recording.
func SetTraceRecordDir(dir string) { traceRecordDir = dir }

// SetTraceReplayDir makes every cell try dir for a previously persisted
// trace of its stream before executing the workload (the -trace-replay
// flag). Empty disables. A missing or invalid file silently falls back
// to execution.
func SetTraceReplayDir(dir string) { traceReplayDir = dir }

// ResetTraceCache empties the cell memo and forgets which streams this
// process has recorded, so the next run computes every cell afresh.
// Benchmarks and tests call it to time or observe a cold run; not safe
// while a Run is in flight.
func ResetTraceCache() {
	memo.reset()
	recording.Range(func(k, _ any) bool {
		recording.Delete(k)
		return true
	})
}

// cellSpec describes one grid cell to runCell: the identity of its
// reference stream (key), the configuration to simulate it under
// (opts), how to rewrite row labels recorded by another cell of the
// stream for this cell (relabel, nil = keep), and the workload (exec
// returns the cell's measured row).
type cellSpec struct {
	key     string
	opts    core.Options
	relabel func(string) string
	exec    func(s *core.System) (core.Row, error)
}

// cellID is a cell's full identity: two cells with equal IDs simulate the
// same machine over the same reference stream and so produce the same
// rows. It is a comparable struct so that every machine-configuration
// field is part of the identity by construction.
type cellID struct {
	stream string
	ctrl   core.ControllerKind
	pf     core.PrefetchPolicy
	costs  core.Costs
	cfg    sim.Config
}

func (spec *cellSpec) id() cellID {
	cfg := sim.DefaultConfig()
	if spec.opts.Config != nil {
		cfg = *spec.opts.Config
	}
	// The fast path changes host time only, never a simulated result.
	cfg.DisableFastPath = false
	return cellID{spec.key, spec.opts.Controller, spec.opts.Prefetch, spec.opts.Costs, cfg}
}

// memoCap bounds the finished entries the memo holds. A core.Row is 488
// bytes and a cell stores one or two plus its identity, so a full memo
// holds a few MB at most.
const memoCap = 1024

// memoEntry is one cell's memoized outcome. done closes once the
// computing cell finishes; rows, row and err are read only after that.
type memoEntry struct {
	done chan struct{}
	rows []core.Row // every row the cell observed, in order
	row  core.Row   // the cell's measured row
	err  error
}

// cellMemo maps cellID -> *memoEntry. The first cell to claim an ID
// computes it; identical cells arriving meanwhile wait for it. Failed
// entries are dropped, finished ones are kept up to memoCap, oldest
// evicted first.
type cellMemo struct {
	entries sync.Map
	mu      sync.Mutex
	fifo    []memoSlot // finished entries, oldest first
}

type memoSlot struct {
	id  cellID
	ent *memoEntry
}

func (m *cellMemo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries.Range(func(k, _ any) bool {
		m.entries.Delete(k)
		return true
	})
	m.fifo = nil
}

// keep records a finished entry and evicts the oldest beyond memoCap.
// CompareAndDelete removes only the evicted entry, never a newer one
// stored under the same ID after a reset.
func (m *cellMemo) keep(id cellID, ent *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fifo = append(m.fifo, memoSlot{id, ent})
	for len(m.fifo) > memoCap {
		m.entries.CompareAndDelete(m.fifo[0].id, m.fifo[0].ent)
		m.fifo[0] = memoSlot{}
		m.fifo = m.fifo[1:]
	}
}

// runCells runs n grid cells, each as its own pool task, and returns
// each cell's measured row in submission order. build(i) describes cell
// i; it is called on the worker that runs the cell.
func runCells(ctx context.Context, n int, build func(i int) cellSpec) ([]core.Row, error) {
	return RunCtx(ctx, n, func(i int, tc *TaskCtx) (core.Row, error) {
		return runCell(tc, build(i))
	})
}

// runCell runs one grid cell through the memo and reports its mode and
// wall-clock interval to the context's cell observer
// (WithCellObserver), if one is installed.
func runCell(tc *TaskCtx, spec cellSpec) (core.Row, error) {
	start := time.Now()
	row, mode, err := memoCell(tc, spec)
	if observe := cellObserver(tc.Ctx); observe != nil {
		observe(CellEvent{Key: spec.key, Mode: mode, Start: start, End: time.Now()})
	}
	return row, err
}

// memoCell returns an identical cell's stored rows, relabelled for this
// cell, or computes the cell and stores its rows.
func memoCell(tc *TaskCtx, spec cellSpec) (core.Row, string, error) {
	id := spec.id()
	for {
		v, loaded := memo.entries.LoadOrStore(id, &memoEntry{done: make(chan struct{})})
		ent := v.(*memoEntry)
		if !loaded {
			return computeCell(tc, spec, id, ent)
		}
		select {
		case <-ent.done:
		case <-tc.Ctx.Done():
			return core.Row{}, "reused", tc.Ctx.Err()
		}
		if ent.err == nil {
			for _, r := range ent.rows {
				tc.Observe(relabelRow(r, spec.relabel))
			}
			return relabelRow(ent.row, spec.relabel), "reused", nil
		}
		// The computing cell failed and dropped its entry (a cancelled
		// job must not fail an identical cell of another job): compute
		// here, or wait for whichever cell claimed the ID since.
	}
}

// computeCell runs the cell that claimed ent and settles the entry: a
// failure is never stored — CompareAndDelete drops exactly this entry so
// the next identical cell retries — and a success is kept.
func computeCell(tc *TaskCtx, spec cellSpec, id cellID, ent *memoEntry) (core.Row, string, error) {
	mark := len(tc.rows)
	row, mode, err := runUncached(tc, spec)
	if err != nil {
		ent.err = err
		memo.entries.CompareAndDelete(id, ent)
		close(ent.done)
		return core.Row{}, mode, err
	}
	ent.rows = append([]core.Row(nil), tc.rows[mark:]...)
	ent.row = row
	close(ent.done)
	memo.keep(id, ent)
	return row, mode, nil
}

func relabelRow(r core.Row, relabel func(string) string) core.Row {
	if relabel != nil {
		r.Label = relabel(r.Label)
	}
	return r
}

// runUncached computes a cell: replay its persisted stream if
// -trace-replay has one, record the stream if this is the first cell of
// it under -trace-record, and otherwise execute.
func runUncached(tc *TaskCtx, spec cellSpec) (core.Row, string, error) {
	if data := loadPersistedTrace(spec.key); data != nil {
		row, err := replayCell(tc, spec, data)
		return row, "replay", err
	}
	s, err := tc.NewSystem(spec.opts)
	if err != nil {
		return core.Row{}, "execute", err
	}
	defer s.ReleaseBuffers()
	if traceRecordDir != "" {
		if _, taken := recording.LoadOrStore(spec.key, struct{}{}); !taken {
			row, err := recordCell(tc.Ctx, s, spec)
			if err != nil {
				// Leave the stream for a later cell or run to record.
				recording.Delete(spec.key)
			}
			return row, "record", err
		}
	}
	row, err := spec.exec(s)
	return row, "execute", err
}

// recordCell executes the cell on s under a trace recorder and persists
// the recorded stream.
func recordCell(ctx context.Context, s *core.System, spec cellSpec) (core.Row, error) {
	rec := tracefile.RecordRun(s)
	row, err := spec.exec(s)
	if err != nil {
		return core.Row{}, err
	}
	data, err := rec.Bytes()
	if err != nil {
		return core.Row{}, err
	}
	persistTrace(ctx, spec.key, data)
	return row, nil
}

// replayCell replays a persisted stream on a fresh machine under the
// cell's configuration; the cell's row is the stream's last measured row.
func replayCell(tc *TaskCtx, spec cellSpec, data []byte) (core.Row, error) {
	s, err := tc.NewSystem(spec.opts)
	if err != nil {
		return core.Row{}, err
	}
	rows, err := tracefile.ReplayV2(s, data, tracefile.ReplayOpts{MapLabel: spec.relabel})
	s.ReleaseBuffers()
	if err != nil {
		return core.Row{}, fmt.Errorf("harness: trace replay (%s): %w", spec.key, err)
	}
	if len(rows) == 0 {
		return core.Row{}, fmt.Errorf("harness: trace replay (%s): no measured rows", spec.key)
	}
	return rows[len(rows)-1], nil
}

// streamSig captures the configuration knobs that change the *reference
// stream* a workload issues (as opposed to its timing): the L1 size
// feeds scatter/gather target placement, and the page-color count feeds
// recoloring and the frame allocator. Cells that differ here must not
// share a trace.
func streamSig(cfg *sim.Config) string {
	c := sim.DefaultConfig()
	if cfg != nil {
		c = *cfg
	}
	return fmt.Sprintf("l1=%d,colors=%d", c.L1.Bytes, c.Kernel.PageColors)
}

// tracePath maps a stream key to a file name under dir: the key,
// sanitized, plus a hash to keep sanitized collisions apart.
func tracePath(dir, key string) string {
	h := fnv.New32a()
	h.Write([]byte(key))
	san := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_', r == '=', r == ',':
			return r
		default:
			return '_'
		}
	}, key)
	return filepath.Join(dir, fmt.Sprintf("%s-%08x.imptrc", san, h.Sum32()))
}

func loadPersistedTrace(key string) []byte {
	if traceReplayDir == "" {
		return nil
	}
	data, err := os.ReadFile(tracePath(traceReplayDir, key))
	if err != nil || tracefile.Validate(data) != nil {
		return nil
	}
	return data
}

// persistTrace writes via temp-file-plus-rename so a persisted trace is
// either complete or absent: several processes may record into one
// directory, and a process replaying concurrently with another's
// recording (or a process killed mid-write) must never see a torn
// .imptrc — loadPersistedTrace would reject it and fall back, but a
// same-name partial would shadow the good file a slower writer was
// producing.
func persistTrace(ctx context.Context, key string, data []byte) {
	if err := os.MkdirAll(traceRecordDir, 0o755); err != nil {
		obs.WarnOnceCtx(ctx, "trace-record-dir:"+traceRecordDir, "trace-record: record dir: %v", err)
		return
	}
	dst := tracePath(traceRecordDir, key)
	tmp, err := os.CreateTemp(traceRecordDir, filepath.Base(dst)+".tmp-*")
	if err != nil {
		obs.WarnOnceCtx(ctx, "trace-persist:"+traceRecordDir, "trace-record: persist %s: %v", key, err)
		return
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
		obs.WarnOnceCtx(ctx, "trace-persist:"+traceRecordDir, "trace-record: persist %s: %v", key, err)
	}
}

// relabelPf rewrites the "<...>/<prefetch>" suffix the CG/MMP/Cholesky
// section labels carry to this cell's prefetch policy, so a row recorded
// by another column of the stream renders (and registers counters)
// exactly as if this cell had executed.
func relabelPf(pf core.PrefetchPolicy) func(string) string {
	suffix := pf.String()
	return func(label string) string {
		if i := strings.LastIndexByte(label, '/'); i >= 0 {
			return label[:i+1] + suffix
		}
		return label
	}
}

// constLabel relabels every recorded row to a fixed label (families
// whose cells label rows by the knob being swept).
func constLabel(l string) func(string) string {
	return func(string) string { return l }
}

// cgKey identifies the reference stream of one CG cell: the problem, the
// remapping mode, and the stream-affecting config knobs. Prefetch policy,
// controller kind, and pure timing knobs are deliberately absent — cells
// differing only there share the stream, including across sweep families
// run at the same parameters.
func cgKey(par workloads.CGParams, mode workloads.CGMode, cfg *sim.Config) string {
	return fmt.Sprintf("cg-n%d-nz%d-ni%d-it%d-sh%g-rc%g-%v-%s",
		par.N, par.Nonzer, par.Niter, par.CGIts, par.Shift, par.RCond, mode, streamSig(cfg))
}

// mmpKey identifies the reference stream of one tiled matrix-product cell.
func mmpKey(par workloads.MMPParams, mode workloads.MMPMode, cfg *sim.Config) string {
	return fmt.Sprintf("mmp-n%d-t%d-%v-%s", par.N, par.Tile, mode, streamSig(cfg))
}
