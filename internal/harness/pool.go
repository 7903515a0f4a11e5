// Parallel experiment engine. Every table and sweep in this package is a
// set of independent simulator configurations — separate *sim.Machine
// instances that share nothing but read-only inputs (a sparse matrix, a
// captured trace). The pool fans those rows across worker goroutines and
// re-serializes everything that must stay deterministic:
//
//   - results are returned in submission order, so rendered tables are
//     byte-identical to a serial run regardless of worker count;
//   - rows observed through core's row-observer mechanism are buffered
//     per task and replayed through core.EmitRow in submission order, so
//     registry dumps (-counters) are byte-identical too;
//   - on error, the surfaced error is the one from the lowest-index
//     failing task — never a scheduling-dependent "first past the post".
//
// Determinism is the property that makes a simulator useful as a sweep
// platform: `-j 8` must be a faster spelling of `-j 1`, nothing more.
package harness

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"impulse/internal/core"
	"impulse/internal/sim"
)

// workers is the pool width used by Run. Set once at startup (flag
// parsing) via SetWorkers; not safe to change while a Run is in flight.
var workers = runtime.GOMAXPROCS(0)

// SetWorkers sets the number of worker goroutines experiment rows fan
// across. n < 1 means 1 (serial). Call it during setup, before any
// experiment runs.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	workers = n
}

// Workers returns the configured pool width.
func Workers() int { return workers }

// rowSinkKey carries a per-invocation row sink in a context. See
// WithRowSink.
type rowSinkKey struct{}

// WithRowSink returns a context that routes the rows RunCtx replays
// after a parallel phase to sink instead of the process-global observer
// (core.EmitRow). This is what lets several experiment runs execute
// concurrently in one process — the impulsed service gives every job
// its own sink collecting into a per-job registry — where a shared
// core.SetRowObserver would race. Rows still arrive in submission
// order, on the goroutine that called RunCtx.
func WithRowSink(ctx context.Context, sink func(core.Row)) context.Context {
	return context.WithValue(ctx, rowSinkKey{}, sink)
}

// rowSink extracts the sink installed by WithRowSink, or nil.
func rowSink(ctx context.Context) func(core.Row) {
	sink, _ := ctx.Value(rowSinkKey{}).(func(core.Row))
	return sink
}

// CellEvent describes one grid cell's run: which reference stream it
// belongs to (the cell's stream-identity key), how it ran, and its host
// wall-clock interval. The impulsed service installs an observer per job
// (WithCellObserver) and turns these into the job's Perfetto timeline and
// provenance manifest.
type CellEvent struct {
	// Key is the cell's reference-stream identity (cellSpec.key).
	Key string
	// Mode is how the cell ran: "execute" (ran the workload) or "reused"
	// (re-emitted an identical cell's rows from the cell memo).
	Mode string
	// Start and End bound the cell's host wall-clock run.
	Start, End time.Time
	// Batch, BatchIndex and Decode are never set: every cell is its own
	// pool task and no cell decodes a trace. They remain so readers of
	// earlier cell events (perfbench) still compile.
	Batch      string
	BatchIndex int
	Decode     time.Duration
}

// cellObsKey carries a per-invocation cell observer in a context.
type cellObsKey struct{}

// WithCellObserver returns a context that reports every grid cell run
// under it to fn. Cells run on pool worker goroutines, concurrently
// and in no particular order; fn must be safe for that. A nil observer
// (the CLIs) costs one context lookup per cell — nothing on the
// simulator's per-access hot path, which never sees contexts.
func WithCellObserver(ctx context.Context, fn func(CellEvent)) context.Context {
	return context.WithValue(ctx, cellObsKey{}, fn)
}

// cellObserver extracts the observer installed by WithCellObserver, or nil.
func cellObserver(ctx context.Context) func(CellEvent) {
	fn, _ := ctx.Value(cellObsKey{}).(func(CellEvent))
	return fn
}

// TaskCtx is the per-task context handed to every pool task. Systems
// built through it buffer their observed rows locally; the pool replays
// them in submission order after the parallel phase, keeping the global
// row observer (and therefore -counters output) deterministic.
//
// Ctx is the run's context: tasks that block (or loop for a long time)
// should watch Ctx.Done() so a cancelled run stops promptly instead of
// running to completion.
type TaskCtx struct {
	Ctx  context.Context
	rows []core.Row
}

// NewSystem builds a core.System whose rows are captured by this task,
// under the harness-wide fast-path policy. Pool tasks must create
// systems through this method (not core.NewSystem directly), or their
// rows would race on the global observer.
func (tc *TaskCtx) NewSystem(opts core.Options) (*core.System, error) {
	opts.RowObserver = func(r core.Row) { tc.rows = append(tc.rows, r) }
	if fastPathOff {
		cfg := sim.DefaultConfig()
		if opts.Config != nil {
			cfg = *opts.Config
		}
		cfg.DisableFastPath = true
		opts.Config = &cfg
	}
	return core.NewSystem(opts)
}

// fastPathOff forces DisableFastPath on every system built through a
// TaskCtx. The differential tests flip it to prove the fast-path access
// engine is cycle- and counter-invisible at the experiment level.
var fastPathOff bool

// SetFastPath enables or disables the simulator's fast-path access
// engine for every system subsequently built through a TaskCtx. On by
// default. Call during setup, not while an experiment runs; results are
// identical either way (only host time differs).
func SetFastPath(on bool) { fastPathOff = !on }

// FastPathEnabled reports whether systems built through a TaskCtx use
// the fast-path access engine (recorded in job provenance manifests).
func FastPathEnabled() bool { return !fastPathOff }

// Observe adds a row to the task's buffered row log directly (for tasks
// that produce rows without a System, e.g. cells reused from the memo).
func (tc *TaskCtx) Observe(r core.Row) { tc.rows = append(tc.rows, r) }

// Run executes n independent tasks across the configured worker count
// and returns their results in submission order. It is RunCtx with a
// background context; see RunCtx for semantics.
func Run[T any](n int, task func(i int, tc *TaskCtx) (T, error)) ([]T, error) {
	return RunCtx(context.Background(), n, task)
}

// RunCtx executes n independent tasks across the configured worker
// count and returns their results in submission order. task is called
// with the task index and a fresh TaskCtx; it must not share mutable
// state with other tasks.
//
// Error semantics: if any task fails, RunCtx returns the error of the
// lowest-index failing task and cancels tasks with higher indices that
// have not started yet. This is deterministic regardless of scheduling:
// a task is skipped only when a lower-index task has already failed, so
// the lowest-index task that would fail always runs, and its error
// always wins.
//
// Cancellation: when ctx is cancelled, no new tasks start, and RunCtx
// returns ctx.Err() after in-flight tasks finish. Tasks see the context
// as TaskCtx.Ctx, so a task that blocks can unblock itself on
// Ctx.Done(). Cancellation wins over task errors — the caller asked the
// whole run to stop, so which tasks happened to complete (or fail)
// first is scheduling noise the result must not depend on.
func RunCtx[T any](ctx context.Context, n int, task func(i int, tc *TaskCtx) (T, error)) ([]T, error) {
	results := make([]T, n)
	ctxs := make([]*TaskCtx, n)
	errs := make([]error, n)

	var (
		mu       sync.Mutex
		firstErr = n // lowest failing index so far; n = none
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	next.Store(-1)

	w := workers
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1))
			if i >= n {
				return
			}
			if ctx.Err() != nil {
				return
			}
			mu.Lock()
			cancelled := firstErr < i
			mu.Unlock()
			if cancelled {
				continue
			}
			tc := &TaskCtx{Ctx: ctx}
			res, err := task(i, tc)
			if err != nil {
				errs[i] = err // only worker i writes slot i
				mu.Lock()
				if i < firstErr {
					firstErr = i
				}
				mu.Unlock()
				continue
			}
			results[i] = res
			ctxs[i] = tc
		}
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go worker()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr < n {
		return nil, errs[firstErr]
	}
	// Replay buffered rows in submission order on the caller's
	// goroutine: to the context's sink if one is installed (concurrent
	// service jobs), else to the process-global observer (the CLIs).
	emit := rowSink(ctx)
	if emit == nil {
		emit = core.EmitRow
	}
	for _, tc := range ctxs {
		for _, r := range tc.rows {
			emit(r)
		}
	}
	return results, nil
}
