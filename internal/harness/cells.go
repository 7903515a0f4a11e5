// Grid cells. Every table and sweep cell is one pool task that builds its
// own machine and executes its workload. A bounded, single-flight memo of
// finished cell rows sits around that, keyed by the cell's full identity:
// its reference-stream key plus the controller, prefetch policy, costs
// and the whole machine configuration. A later run that reaches an
// identical cell — a daemon serving one geometry in several formats, a
// sweep family repeating another family's cell — re-emits the stored rows
// instead of simulating again. Simulation is deterministic, so a reused
// row is the row execution would have produced.
package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"impulse/internal/core"
	"impulse/internal/sim"
	"impulse/internal/workloads"
)

var memo cellMemo

// ResetTraceCache empties the cell memo, so the next run computes every
// cell afresh. Benchmarks and tests call it to time or observe a cold
// run; not safe while a Run is in flight. (The name predates the memo;
// perfbench calls it by this name.)
func ResetTraceCache() { memo.reset() }

// cellSpec describes one grid cell to runCell: the identity of its
// reference stream (key), the configuration to simulate it under
// (opts), and the workload (exec returns the cell's measured row). Every
// row label is a function of the cell's identity, so an identical cell's
// stored rows are re-emitted as they are.
type cellSpec struct {
	key  string
	opts core.Options
	exec func(s *core.System) (core.Row, error)
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

// memoCell returns an identical cell's stored rows, or computes the cell
// and stores its rows.
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
				tc.Observe(r)
			}
			return ent.row, "reused", nil
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
	row, err := runUncached(tc, spec)
	if err != nil {
		ent.err = err
		memo.entries.CompareAndDelete(id, ent)
		close(ent.done)
		return core.Row{}, "execute", err
	}
	ent.rows = append([]core.Row(nil), tc.rows[mark:]...)
	ent.row = row
	close(ent.done)
	memo.keep(id, ent)
	return row, "execute", nil
}

// runUncached computes a cell by executing its workload on a fresh
// machine.
func runUncached(tc *TaskCtx, spec cellSpec) (core.Row, error) {
	s, err := tc.NewSystem(spec.opts)
	if err != nil {
		return core.Row{}, err
	}
	defer s.ReleaseBuffers()
	return spec.exec(s)
}

// streamSig captures the configuration knobs that change the *reference
// stream* a workload issues (as opposed to its timing): the L1 size
// feeds scatter/gather target placement, and the page-color count feeds
// recoloring and the frame allocator. It is part of every stream key.
func streamSig(cfg *sim.Config) string {
	c := sim.DefaultConfig()
	if cfg != nil {
		c = *cfg
	}
	return fmt.Sprintf("l1=%d,colors=%d", c.L1.Bytes, c.Kernel.PageColors)
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
