package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"impulse/internal/core"
	"impulse/internal/obs"
	"impulse/internal/workloads"
)

// withColdMemo runs f from an empty cell memo and leaves the memo empty
// for the next test.
func withColdMemo(t *testing.T, f func()) {
	t.Helper()
	t.Cleanup(ResetTraceCache)
	ResetTraceCache()
	f()
}

// gridRun is one captured grid run: its rendered text, JSON and every
// row its row sink received, plus how many cells ran in each mode.
type gridRun struct {
	out   string
	modes map[string]int
}

func captureRun(t *testing.T, run func(ctx context.Context) (*Grid, error)) gridRun {
	t.Helper()
	r, err := capture(run)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func capture(run func(ctx context.Context) (*Grid, error)) (gridRun, error) {
	var rows []core.Row
	var mu sync.Mutex
	modes := map[string]int{}
	ctx := WithRowSink(context.Background(), func(r core.Row) { rows = append(rows, r) })
	ctx = WithCellObserver(ctx, func(ev CellEvent) {
		mu.Lock()
		modes[ev.Mode]++
		mu.Unlock()
	})
	g, err := run(ctx)
	if err != nil {
		return gridRun{}, err
	}
	var b strings.Builder
	if err := g.Render(&b); err != nil {
		return gridRun{}, err
	}
	b.WriteString("\n--- json ---\n")
	if err := g.WriteJSON(&b); err != nil {
		return gridRun{}, err
	}
	b.WriteString("\n--- rows ---\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%+v\n", r)
	}
	return gridRun{b.String(), modes}, nil
}

func table1Run(ctx context.Context) (*Grid, error) { return Table1(ctx, smallCG(), nil) }

func table2Run(ctx context.Context) (*Grid, error) {
	return Table2(ctx, workloads.MMPParams{N: 64, Tile: 16}, nil)
}

func wantModes(t *testing.T, what string, got map[string]int, want map[string]int) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: cell modes %v, want %v", what, got, want)
	}
}

// memoGridIdentity runs a small grid twice in one process: every cell of
// the second run is reused from the cell memo, and the rendered grid, its
// JSON and the rows its sink receives are byte-identical to the first
// run's. After ResetTraceCache every cell executes again.
func memoGridIdentity(t *testing.T, run func(context.Context) (*Grid, error)) {
	t.Helper()
	withColdMemo(t, func() {
		first := captureRun(t, run)
		wantModes(t, "first run", first.modes, map[string]int{"execute": 12})
		second := captureRun(t, run)
		wantModes(t, "second run", second.modes, map[string]int{"reused": 12})
		if second.out != first.out {
			t.Errorf("reused grid differs\n--- executed ---\n%s--- reused ---\n%s", first.out, second.out)
		}
		ResetTraceCache()
		wantModes(t, "run after reset", captureRun(t, run).modes, map[string]int{"execute": 12})
	})
}

// The TestTraceCache* tests pin, on the cell memo, the contracts they
// first pinned on the record-then-replay trace cache the memo replaced:
// the process-wide store ResetTraceCache empties must never change what
// a run reports, and a failed cell must never poison it.

// TestTraceCacheTable1Identity: the full Table 1 grid is byte-identical
// whether every cell executes or every cell is reused from the memo.
func TestTraceCacheTable1Identity(t *testing.T) { memoGridIdentity(t, table1Run) }

// TestTraceCacheTable2Identity: the same for the Table 2 grid.
func TestTraceCacheTable2Identity(t *testing.T) { memoGridIdentity(t, table2Run) }

// sweepAll runs every family's fast geometry in order, as
// `sweep -exp all -fast -counters -` does, resetting the memo before
// each family when alone is set. It returns the text, the counters dump
// and how many cells were reused.
func sweepAll(t *testing.T, alone bool) (text, counters string, reused int) {
	t.Helper()
	var reg obs.Registry
	core.SetRowObserver(core.CollectRows(&reg))
	defer core.SetRowObserver(nil)
	var mu sync.Mutex
	ctx := WithCellObserver(context.Background(), func(ev CellEvent) {
		mu.Lock()
		if ev.Mode == "reused" {
			reused++
		}
		mu.Unlock()
	})
	var b strings.Builder
	for _, f := range Families() {
		if alone {
			ResetTraceCache()
		}
		if err := f.Run(ctx, true, &b); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		b.WriteString("\n")
	}
	var cb strings.Builder
	if err := reg.WriteText(&cb); err != nil {
		t.Fatal(err)
	}
	return b.String(), cb.String(), reused
}

// TestTraceCacheSweepIdentity: `sweep -exp all -fast` in one process
// reaches identical cells from different families: the scheduler's
// in-order cell is the page-policy family's open-page cell and the
// superscalar family's width-1 cell. Its text and counters must be
// byte-identical to running each family alone from an empty memo.
func TestTraceCacheSweepIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sweep family twice; run without -short")
	}
	withColdMemo(t, func() {
		text, counters, reused := sweepAll(t, false)
		if reused == 0 {
			t.Fatal("sweep -exp all reused no cell; the test no longer covers cross-family reuse")
		}
		aloneText, aloneCounters, aloneReused := sweepAll(t, true)
		if aloneReused != 0 {
			t.Fatalf("families run alone reused %d cells", aloneReused)
		}
		if text != aloneText {
			t.Errorf("sweep all differs from each family alone\n--- all ---\n%s--- alone ---\n%s", text, aloneText)
		}
		if counters != aloneCounters {
			t.Errorf("counters differ (%d vs %d bytes)", len(counters), len(aloneCounters))
		}
	})
}

// diagCell is a small cell whose workload fails while fail is set.
func diagCell(key string, fail *bool) cellSpec {
	return cellSpec{
		key:  key,
		opts: core.Options{Controller: core.Conventional},
		exec: func(s *core.System) (core.Row, error) {
			if *fail {
				return core.Row{}, errInjected
			}
			res, err := workloads.RunDiagonal(s, 16, 1, false)
			return res.Row, err
		},
	}
}

var errInjected = errors.New("injected cell failure")

// cellMode runs one cell on a fresh task and reports how it ran.
func cellMode(t *testing.T, spec cellSpec) (core.Row, string, error) {
	t.Helper()
	var mode string
	ctx := WithCellObserver(context.Background(), func(ev CellEvent) { mode = ev.Mode })
	row, err := runCell(&TaskCtx{Ctx: ctx}, spec)
	return row, mode, err
}

// TestTraceCacheRetryAfterError: a failed cell must not poison its
// identity — a daemon serves many jobs, and a cancelled or failed first
// job must leave the cell computable for the next.
func TestTraceCacheRetryAfterError(t *testing.T) {
	withColdMemo(t, func() {
		fail := true
		if _, _, err := cellMode(t, diagCell("failure-test", &fail)); !errors.Is(err, errInjected) {
			t.Fatalf("first attempt err = %v, want injected failure", err)
		}
		fail = false
		row, mode, err := cellMode(t, diagCell("failure-test", &fail))
		if err != nil {
			t.Fatalf("retry after failed cell: %v", err)
		}
		if mode != "execute" || row.Cycles == 0 {
			t.Errorf("retry ran as %q with %d cycles, want a fresh execution", mode, row.Cycles)
		}
		if _, mode, _ := cellMode(t, diagCell("failure-test", &fail)); mode != "reused" {
			t.Errorf("successful cell not stored: next identical cell ran as %q", mode)
		}

		// An identical cell arriving while the failing one runs waits for
		// it, then computes the cell itself instead of inheriting the error.
		started, release := make(chan struct{}), make(chan struct{})
		failing := diagCell("failure-wait-test", &fail)
		failing.exec = func(*core.System) (core.Row, error) {
			close(started)
			<-release
			return core.Row{}, errInjected
		}
		leadErr := make(chan error, 1)
		go func() {
			_, err := runCell(&TaskCtx{Ctx: context.Background()}, failing)
			leadErr <- err
		}()
		<-started
		type result struct {
			mode string
			err  error
		}
		waiter := make(chan result, 1)
		go func() {
			_, mode, err := cellMode(t, diagCell("failure-wait-test", &fail))
			waiter <- result{mode, err}
		}()
		close(release)
		if err := <-leadErr; !errors.Is(err, errInjected) {
			t.Fatalf("failing cell err = %v", err)
		}
		if r := <-waiter; r.err != nil || r.mode != "execute" {
			t.Errorf("cell beside a failing identical cell: mode %q err %v, want a fresh execution", r.mode, r.err)
		}
	})
}

// TestCellMemoSingleFlight: identical jobs running at once compute each
// cell once; every other copy of the cell waits and reuses its rows.
func TestCellMemoSingleFlight(t *testing.T) {
	withColdMemo(t, func() {
		const jobs = 4
		runs := make([]gridRun, jobs)
		errs := make([]error, jobs)
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runs[i], errs[i] = capture(table1Run)
			}(i)
		}
		wg.Wait()
		total := map[string]int{}
		for i, r := range runs {
			if errs[i] != nil {
				t.Fatalf("job %d: %v", i, errs[i])
			}
			for m, n := range r.modes {
				total[m] += n
			}
			if r.out != runs[0].out {
				t.Errorf("job %d output differs from job 0", i)
			}
		}
		wantModes(t, "concurrent jobs", total, map[string]int{"execute": 12, "reused": 12 * (jobs - 1)})
	})
}

// TestCellMemoCap: the memo holds at most memoCap finished cells. After
// more distinct cells than that, the oldest are evicted (and execute
// again) while the newest are still reused.
func TestCellMemoCap(t *testing.T) {
	withColdMemo(t, func() {
		ok := false
		spec := func(i int) cellSpec { return diagCell(fmt.Sprintf("cap-test-%d", i), &ok) }
		const extra = 8
		for i := 0; i < memoCap+extra; i++ {
			if _, _, err := cellMode(t, spec(i)); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		memo.entries.Range(func(_, _ any) bool { n++; return true })
		if n != memoCap {
			t.Errorf("memo holds %d entries after %d distinct cells, want the cap %d", n, memoCap+extra, memoCap)
		}
		if _, mode, _ := cellMode(t, spec(memoCap+extra-1)); mode != "reused" {
			t.Errorf("newest cell ran as %q, want reused", mode)
		}
		if _, mode, _ := cellMode(t, spec(0)); mode != "execute" {
			t.Errorf("oldest cell ran as %q, want execute (evicted)", mode)
		}
	})
}

// TestTraceCacheDiskRoundTrip first recorded grids to disk and replayed
// them in a fresh memo. Nothing is recorded any more, so it pins the
// round trip that remains: a grid run keeps nothing outside the process.
// With the working directory and TMPDIR pointed at an empty directory, a
// cold run and a repeat that reuses every cell create no file there, and
// after ResetTraceCache a fresh run executes every cell again and
// reproduces the cold run byte for byte, Impulse shadow cells
// (scatter/gather, tile remapping) included.
func TestTraceCacheDiskRoundTrip(t *testing.T) {
	for _, g := range []struct {
		name string
		run  func(context.Context) (*Grid, error)
	}{{"table1", table1Run}, {"table2", table2Run}} {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			wd, err := os.Getwd()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Chdir(dir); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Chdir(wd) })
			t.Setenv("TMPDIR", dir)
			withColdMemo(t, func() {
				cold := captureRun(t, g.run)
				wantModes(t, "cold run", cold.modes, map[string]int{"execute": 12})
				repeat := captureRun(t, g.run)
				wantModes(t, "repeat run", repeat.modes, map[string]int{"reused": 12})
				ResetTraceCache()
				fresh := captureRun(t, g.run)
				wantModes(t, "run after reset", fresh.modes, map[string]int{"execute": 12})
				for what, got := range map[string]string{"repeat": repeat.out, "after reset": fresh.out} {
					if got != cold.out {
						t.Errorf("%s run differs from the cold run\n--- cold ---\n%s--- %s ---\n%s",
							what, cold.out, what, got)
					}
				}
			})
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				t.Errorf("grid run left %s on disk", e.Name())
			}
		})
	}
}
