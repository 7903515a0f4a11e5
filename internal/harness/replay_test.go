package harness

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"impulse/internal/core"
	"impulse/internal/obs"
	"impulse/internal/sim"
	"impulse/internal/workloads"
)

// The TestVectorReplay* tests first covered a batched engine that
// replayed one recorded stream on every cell of the stream at once. That
// engine is gone: every cell is its own pool task, and -trace-replay
// replays a persisted stream one cell at a time with tracefile.ReplayV2.
// The tests keep their names and pin the same contracts on the trace
// workflow that remains — recorded and replayed grids are byte-identical
// to execution, the cells of one stream fail and cancel like any other
// pool tasks, and every cell reports one event naming how it ran.

// diffTraceReplay captures an experiment three times from an empty cell
// memo — executed, recorded to disk (-trace-record) and replayed from
// that directory (-trace-replay) — and requires identical output, with
// one recording per reference stream and every cell of the replay run
// replayed. With fastOff the recording and the replay run with the fast
// path off, so every replayed access takes the reference access path,
// and are still compared with a fast-path execution.
func diffTraceReplay(t *testing.T, fastOff bool, capture func(ctx context.Context) string) {
	t.Helper()
	dir := t.TempDir()
	var exec, rec, rep string
	var execModes, recModes, repModes map[string]map[string]int
	withColdMemo(t, func() {
		exec, execModes = traceRun(capture)
		withFastPath(t, !fastOff, func() {
			ResetTraceCache()
			SetTraceRecordDir(dir)
			rec, recModes = traceRun(capture)
			SetTraceRecordDir("")
			ResetTraceCache()
			SetTraceReplayDir(dir)
			rep, repModes = traceRun(capture)
		})
	})
	// A cell identical to an earlier cell of the same run is reused in
	// every mode; every other cell must run in the mode under test.
	for key, modes := range execModes {
		if modes["record"]+modes["replay"] != 0 {
			t.Errorf("execution run: stream %s ran as %v", key, modes)
		}
		if recModes[key]["record"] != 1 {
			t.Errorf("recording run: stream %s ran as %v, want one record", key, recModes[key])
		}
		if rm := repModes[key]; rm["replay"] == 0 || rm["execute"]+rm["record"] != 0 {
			t.Errorf("replay run: stream %s ran as %v, want every cell replayed", key, rm)
		}
	}
	for what, got := range map[string]string{"recording": rec, "replay": rep} {
		if got != exec {
			t.Errorf("%s run differs from execution\n--- execute ---\n%s--- %s ---\n%s", what, exec, what, got)
		}
	}
}

// traceRun captures one run and counts the modes its cells ran in, per
// stream key.
func traceRun(capture func(ctx context.Context) string) (string, map[string]map[string]int) {
	var mu sync.Mutex
	modes := map[string]map[string]int{}
	ctx := WithCellObserver(context.Background(), func(ev CellEvent) {
		mu.Lock()
		defer mu.Unlock()
		if modes[ev.Key] == nil {
			modes[ev.Key] = map[string]int{}
		}
		modes[ev.Key][ev.Mode]++
	})
	return capture(ctx), modes
}

// TestVectorReplayTable1Identity: the full Table 1 grid — render, JSON,
// and all row counters — recorded and replayed with the fast path off is
// byte-identical to executing it.
func TestVectorReplayTable1Identity(t *testing.T) {
	diffTraceReplay(t, true, func(ctx context.Context) string {
		return captureGrid(t, func() (*Grid, error) { return table1Run(ctx) })
	})
}

// TestVectorReplayTable2Identity: same contract for the tiled
// matrix-product grid, whose tile-remap cells replay Impulse shadow
// descriptors.
func TestVectorReplayTable2Identity(t *testing.T) {
	diffTraceReplay(t, true, func(ctx context.Context) string {
		return captureGrid(t, func() (*Grid, error) { return table2Run(ctx) })
	})
}

// TestVectorReplayFamiliesIdentity runs every sweep family's fast
// geometry executed, recorded and replayed, and requires identical
// rendered output and counters — covering every runCells call site
// (scheduler, prefetch-buffer, gather-stride, spark, superscalar,
// page-policy, cache-geometry) plus the families whose cells have no
// reference stream and must be unaffected by the trace directories.
func TestVectorReplayFamiliesIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("family sweep differentials are slow; run without -short")
	}
	for _, f := range Families() {
		t.Run(f.Name, func(t *testing.T) {
			diffTraceReplay(t, false, func(ctx context.Context) string {
				var reg obs.Registry
				core.SetRowObserver(core.CollectRows(&reg))
				defer core.SetRowObserver(nil)
				var b strings.Builder
				if err := f.Run(ctx, true, &b); err != nil {
					t.Fatal(err)
				}
				b.WriteString("\n--- counters ---\n")
				if err := reg.WriteText(&b); err != nil {
					t.Fatal(err)
				}
				return b.String()
			})
		})
	}
}

// streamSpecs builds cells sharing one CG reference stream, each on a
// machine of its own (cell i's TLB miss costs i cycles more) so that no
// cell reuses another's row. fail, if non-nil, runs before cell i's
// workload and fails the cell when it returns an error.
func streamSpecs(par workloads.CGParams, m *workloads.SparseMatrix, fail func(i int) error) func(i int) cellSpec {
	return func(i int) cellSpec {
		cfg := sim.DefaultConfig()
		cfg.TLBMissPenalty += uint64(i)
		return cellSpec{
			key:  "stream-test:" + cgKey(par, workloads.CGConventional, nil),
			opts: core.Options{Controller: core.Conventional, Config: &cfg},
			exec: func(s *core.System) (core.Row, error) {
				if fail != nil {
					if err := fail(i); err != nil {
						return core.Row{}, err
					}
				}
				res, err := workloads.RunCG(s, par, workloads.CGConventional, m)
				return res.Row, err
			},
		}
	}
}

// TestVectorReplayBatchErrorDeterminism: when several cells of one
// stream fail, the surfaced error is the lowest-index failing cell's —
// the pool's policy — even when a higher-index cell fails first in wall
// time, and no partial rows leak out, whether or not the stream is being
// recorded.
func TestVectorReplayBatchErrorDeterminism(t *testing.T) {
	par := smallCG()
	m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	err1, err3 := errors.New("cell 1 failed"), errors.New("cell 3 failed")
	for _, record := range []bool{false, true} {
		withWorkers(4, func() {
			withColdMemo(t, func() {
				if record {
					SetTraceRecordDir(t.TempDir())
				}
				threeFailed := make(chan struct{})
				rows, err := runCells(context.Background(), 4, streamSpecs(par, m, func(i int) error {
					switch i {
					case 3:
						close(threeFailed)
						return err3
					case 1:
						<-threeFailed
						return err1
					}
					return nil
				}))
				if !errors.Is(err, err1) {
					t.Errorf("record=%v: surfaced error %v, want cell 1's (lowest failing index)", record, err)
				}
				if rows != nil {
					t.Errorf("record=%v: failed run leaked %d rows, want none", record, len(rows))
				}
			})
		})
	}
}

// TestVectorReplayCancelMidBatch cancels the context as soon as the
// stream's recording cell finishes, while the stream's other cells may
// still run beside it: cancellation must win, surface as
// context.Canceled, and leak no rows.
func TestVectorReplayCancelMidBatch(t *testing.T) {
	par := smallCG()
	m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	withColdMemo(t, func() {
		SetTraceRecordDir(t.TempDir())
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx = WithCellObserver(ctx, func(ev CellEvent) {
			if ev.Mode == "record" {
				cancel()
			}
		})
		rows, err := runCells(ctx, 4, streamSpecs(par, m, nil))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
		if rows != nil {
			t.Errorf("cancelled run leaked %d rows, want none", len(rows))
		}
	})
}

// TestVectorReplayCellEvents pins the observability contract of a traced
// Table 1 run: one event per cell, carrying its stream key and a
// wall-clock interval. Recording, each of the three streams has exactly
// one "record" cell beside three "execute" cells; replaying, all twelve
// cells "replay"; a repeat in the same process "reused" them all. The
// batch fields stay empty.
func TestVectorReplayCellEvents(t *testing.T) {
	events := func() []CellEvent {
		var mu sync.Mutex
		var evs []CellEvent
		ctx := WithCellObserver(context.Background(), func(ev CellEvent) {
			mu.Lock()
			evs = append(evs, ev)
			mu.Unlock()
		})
		if _, err := table1Run(ctx); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	// check requires four cells per stream key, with want[mode] of them
	// in each mode.
	check := func(what string, evs []CellEvent, want map[string]int) {
		t.Helper()
		streams := map[string]map[string]int{}
		for _, ev := range evs {
			if ev.Start.IsZero() || ev.End.Before(ev.Start) {
				t.Errorf("%s: cell %s has interval %v..%v", what, ev.Key, ev.Start, ev.End)
			}
			if ev.Batch != "" || ev.BatchIndex != 0 || ev.Decode != 0 {
				t.Errorf("%s: cell %s reports batch fields: %+v", what, ev.Key, ev)
			}
			if streams[ev.Key] == nil {
				streams[ev.Key] = map[string]int{}
			}
			streams[ev.Key][ev.Mode]++
		}
		if len(streams) != 3 {
			t.Fatalf("%s: %d stream keys, want 3", what, len(streams))
		}
		for key, modes := range streams {
			wantModes(t, what+" "+key, modes, want)
		}
	}
	withColdMemo(t, func() {
		dir := t.TempDir()
		SetTraceRecordDir(dir)
		check("recording run", events(), map[string]int{"record": 1, "execute": 3})
		SetTraceRecordDir("")
		ResetTraceCache()
		SetTraceReplayDir(dir)
		check("replay run", events(), map[string]int{"replay": 4})
		check("repeat run", events(), map[string]int{"reused": 4})
	})
}
