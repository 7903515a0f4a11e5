package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"impulse/internal/core"
	"impulse/internal/obs"
	"impulse/internal/sim"
	"impulse/internal/workloads"
)

// The TestVectorReplay* tests first covered a batched engine that
// replayed one recorded stream on every cell of the stream at once, and
// then the cross-process trace workflow. Both are gone: every cell is its
// own pool task that executes its workload or reuses an identical cell's
// rows. The tests keep their names and pin the contracts that remain —
// rows reused from the cell memo are byte-identical to execution, the
// cells of one stream fail and cancel like any other pool tasks, and
// every cell reports one event naming how it ran.

// diffMemoReplay captures an experiment three times — executed from an
// empty cell memo, executed again from an empty memo, and repeated in the
// same process so that every cell is reused from the second run's rows —
// and requires identical output. With fastOff the second run executes
// with the fast path off, so the reused rows come from cells that took
// the reference access path, and the repeat, with the fast path on, must
// still reuse them: the memo's identity ignores the fast path.
func diffMemoReplay(t *testing.T, fastOff bool, capture func(ctx context.Context) string) {
	t.Helper()
	var exec, stored, reused string
	var execModes, storedModes, reusedModes map[string]map[string]int
	withColdMemo(t, func() {
		exec, execModes = traceRun(capture)
		ResetTraceCache()
		withFastPath(t, !fastOff, func() { stored, storedModes = traceRun(capture) })
		withFastPath(t, true, func() { reused, reusedModes = traceRun(capture) })
	})
	// A cell identical to an earlier cell of the same run is reused in
	// the cold runs too; in the repeat no cell may execute.
	for key, modes := range execModes {
		if fmt.Sprint(storedModes[key]) != fmt.Sprint(modes) {
			t.Errorf("stream %s: cold runs ran as %v and %v", key, modes, storedModes[key])
		}
		if rm := reusedModes[key]; rm["execute"] != 0 || rm["reused"] != modes["execute"]+modes["reused"] {
			t.Errorf("repeat run: stream %s ran as %v, want every cell reused", key, rm)
		}
	}
	for what, got := range map[string]string{"second cold": stored, "reused": reused} {
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
// and all row counters — reused from rows that cells stored with the
// fast path off is byte-identical to executing it.
func TestVectorReplayTable1Identity(t *testing.T) {
	diffMemoReplay(t, true, func(ctx context.Context) string {
		return captureGrid(t, func() (*Grid, error) { return table1Run(ctx) })
	})
}

// TestVectorReplayTable2Identity: same contract for the tiled
// matrix-product grid, whose tile-remap cells set up Impulse shadow
// descriptors.
func TestVectorReplayTable2Identity(t *testing.T) {
	diffMemoReplay(t, true, func(ctx context.Context) string {
		return captureGrid(t, func() (*Grid, error) { return table2Run(ctx) })
	})
}

// TestVectorReplayFamiliesIdentity runs every sweep family's fast
// geometry executed twice and then reused, and requires identical
// rendered output and counters — covering every runCells call site
// (scheduler, prefetch-buffer, gather-stride, spark, superscalar,
// page-policy, cache-geometry) and each one's relabel function, plus the
// families whose cells do not go through the memo and must be unaffected
// by it.
func TestVectorReplayFamiliesIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("family sweep differentials are slow; run without -short")
	}
	for _, f := range Families() {
		t.Run(f.Name, func(t *testing.T) {
			diffMemoReplay(t, false, func(ctx context.Context) string {
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
// time, and no partial rows leak out.
func TestVectorReplayBatchErrorDeterminism(t *testing.T) {
	par := smallCG()
	m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	err1, err3 := errors.New("cell 1 failed"), errors.New("cell 3 failed")
	withWorkers(4, func() {
		withColdMemo(t, func() {
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
				t.Errorf("surfaced error %v, want cell 1's (lowest failing index)", err)
			}
			if rows != nil {
				t.Errorf("failed run leaked %d rows, want none", len(rows))
			}
		})
	})
}

// TestVectorReplayCancelMidBatch cancels the context as soon as the
// stream's first cell finishes, while the stream's other cells may still
// run beside it: cancellation must win, surface as context.Canceled, and
// leak no rows.
func TestVectorReplayCancelMidBatch(t *testing.T) {
	par := smallCG()
	m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	withColdMemo(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx = WithCellObserver(ctx, func(CellEvent) { cancel() })
		rows, err := runCells(ctx, 4, streamSpecs(par, m, nil))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
		if rows != nil {
			t.Errorf("cancelled run leaked %d rows, want none", len(rows))
		}
	})
}

// TestVectorReplayCellEvents pins the observability contract of a Table 1
// run: one event per cell, carrying its stream key and a wall-clock
// interval. From a cold memo all twelve cells "execute"; a repeat in the
// same process "reused" them all. The batch fields stay empty.
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
		check("cold run", events(), map[string]int{"execute": 4})
		check("repeat run", events(), map[string]int{"reused": 4})
	})
}
