package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"impulse/internal/core"
	"impulse/internal/obs"
	"impulse/internal/workloads"
)

// withWorkers runs f with the pool width set to n, restoring it after.
func withWorkers(n int, f func()) {
	old := Workers()
	SetWorkers(n)
	defer SetWorkers(old)
	f()
}

func TestRunOrderedResults(t *testing.T) {
	for _, w := range []int{1, 3, 8, 16} {
		withWorkers(w, func() {
			got, err := Run(10, func(i int, tc *TaskCtx) (int, error) {
				return i * i, nil
			})
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("workers=%d: result[%d] = %d, want %d", w, i, v, i*i)
				}
			}
		})
	}
}

func TestRunZeroAndOneTasks(t *testing.T) {
	withWorkers(4, func() {
		if got, err := Run(0, func(i int, tc *TaskCtx) (int, error) { return 0, nil }); err != nil || len(got) != 0 {
			t.Fatalf("n=0: got %v, %v", got, err)
		}
		got, err := Run(1, func(i int, tc *TaskCtx) (string, error) { return "only", nil })
		if err != nil || len(got) != 1 || got[0] != "only" {
			t.Fatalf("n=1: got %v, %v", got, err)
		}
	})
}

// TestRunFirstErrorWins: the surfaced error must be the lowest-index
// failing task's, even when a higher-index task fails first in wall
// time. Task 6 fails immediately; task 3 waits until task 6 has failed,
// then fails too. The pool must still report task 3's error.
func TestRunFirstErrorWins(t *testing.T) {
	err3 := errors.New("task 3 failed")
	err6 := errors.New("task 6 failed")
	withWorkers(4, func() {
		sixFailed := make(chan struct{})
		_, err := Run(8, func(i int, tc *TaskCtx) (int, error) {
			switch i {
			case 6:
				close(sixFailed)
				return 0, err6
			case 3:
				<-sixFailed
				return 0, err3
			}
			return i, nil
		})
		if !errors.Is(err, err3) {
			t.Fatalf("got error %v, want %v (lowest failing index)", err, err3)
		}
	})
}

// TestRunErrorCancelsPending: once a task fails, tasks with higher
// indices that have not started are skipped.
func TestRunErrorCancelsPending(t *testing.T) {
	boom := errors.New("boom")
	withWorkers(1, func() {
		var ran int32
		_, err := Run(100, func(i int, tc *TaskCtx) (int, error) {
			atomic.AddInt32(&ran, 1)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got %v, want %v", err, boom)
		}
		// Serial: tasks 0..3 ran, everything after was cancelled.
		if ran != 4 {
			t.Fatalf("%d tasks ran, want 4", ran)
		}
	})
}

// TestRunReplaysRowsInSubmissionOrder: rows buffered by concurrent tasks
// must reach the global observer in task order, regardless of workers.
func TestRunReplaysRowsInSubmissionOrder(t *testing.T) {
	defer core.SetRowObserver(nil)
	for _, w := range []int{1, 4, 9} {
		var got []string
		core.SetRowObserver(func(r core.Row) { got = append(got, r.Label) })
		withWorkers(w, func() {
			_, err := Run(6, func(i int, tc *TaskCtx) (int, error) {
				tc.Observe(core.Row{Label: fmt.Sprintf("t%d-a", i)})
				tc.Observe(core.Row{Label: fmt.Sprintf("t%d-b", i)})
				return i, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		want := []string{"t0-a", "t0-b", "t1-a", "t1-b", "t2-a", "t2-b", "t3-a", "t3-b", "t4-a", "t4-b", "t5-a", "t5-b"}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: row %d = %q, want %q", w, i, got[i], want[i])
			}
		}
	}
}

// TestRunNoRowsOnError: a failed run must not replay any rows (partial
// registries would differ between worker counts).
func TestRunNoRowsOnError(t *testing.T) {
	defer core.SetRowObserver(nil)
	var got []string
	core.SetRowObserver(func(r core.Row) { got = append(got, r.Label) })
	withWorkers(2, func() {
		_, err := Run(4, func(i int, tc *TaskCtx) (int, error) {
			tc.Observe(core.Row{Label: "x"})
			if i == 2 {
				return 0, errors.New("fail")
			}
			return i, nil
		})
		if err == nil {
			t.Fatal("expected error")
		}
	})
	if len(got) != 0 {
		t.Fatalf("%d rows replayed after error, want 0", len(got))
	}
}

// runAll exercises a representative slice of every converted experiment
// family plus the -counters registry, returning rendered output bytes
// and the registry dump. It starts from an empty cell memo so each call
// simulates every cell under the current worker count.
func runAll(t *testing.T) (output, counters []byte) {
	t.Helper()
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
	var reg obs.Registry
	core.SetRowObserver(core.CollectRows(&reg))
	defer core.SetRowObserver(nil)

	var b bytes.Buffer
	par := smallCG()
	if g, err := Table1(context.Background(), par, nil); err != nil {
		t.Fatal(err)
	} else if err := g.Render(&b); err != nil {
		t.Fatal(err)
	}
	if g, err := Table2(context.Background(), workloads.MMPTiny(), nil); err != nil {
		t.Fatal(err)
	} else if err := g.Render(&b); err != nil {
		t.Fatal(err)
	}
	for _, f := range []func() error{
		func() error { return Figure1(context.Background(), 64, 1, &b) },
		func() error { return SchedulerAblation(context.Background(), par, &b) },
		func() error { return SuperpageExperiment(context.Background(), 128, 2, &b) },
		func() error { return IPCExperiment(context.Background(), 4, 32, 2, &b) },
		func() error { return PrefetchBufferSweep(context.Background(), []uint64{256, 2048}, &b) },
		func() error { return GatherStrideSweep(context.Background(), []int{1, 8}, 1024, &b) },
		func() error { return PagePolicyAblation(context.Background(), par, &b) },
		func() error { return CacheGeometrySweep(context.Background(), par, []uint64{64 << 10, 256 << 10}, &b) },
		func() error { return CholeskyExperiment(context.Background(), 64, 16, &b) },
		func() error { return SparkExperiment(context.Background(), 60, 60, 1, &b) },
		func() error {
			return DBExperiment(context.Background(), workloads.DBParams{Records: 2048, RecordBytes: 128, FieldOffset: 16}, 8, &b)
		},
		func() error { return SuperscalarExperiment(context.Background(), par, []uint64{1, 4}, &b) },
	} {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}

	var cb bytes.Buffer
	if err := reg.WriteText(&cb); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), cb.Bytes()
}

// TestParallelOutputByteIdentical is the differential guarantee behind
// the -j flag: every experiment's rendered output AND its counters
// registry dump must be byte-identical between a serial run and an
// 8-worker run.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	var serialOut, serialCtr, parOut, parCtr []byte
	withWorkers(1, func() { serialOut, serialCtr = runAll(t) })
	withWorkers(8, func() { parOut, parCtr = runAll(t) })
	if !bytes.Equal(serialOut, parOut) {
		t.Errorf("rendered output differs between -j 1 (%d bytes) and -j 8 (%d bytes)", len(serialOut), len(parOut))
	}
	if !bytes.Equal(serialCtr, parCtr) {
		t.Errorf("counters registry differs between -j 1 (%d bytes) and -j 8 (%d bytes)", len(serialCtr), len(parCtr))
	}
}

// TestPoolConcurrentMachines drives genuinely concurrent sim.Machine
// instances through the pool — the workload the race detector checks.
// Shared inputs (the sparse matrix) are read-only by contract; this test
// is what enforces that contract under -race.
func TestPoolConcurrentMachines(t *testing.T) {
	par := smallCG()
	m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	withWorkers(8, func() {
		var mu sync.Mutex
		seen := map[uint64]int{}
		rows, err := Run(8, func(i int, tc *TaskCtx) (core.Row, error) {
			s, err := tc.NewSystem(core.Options{Controller: core.Impulse, Prefetch: core.PrefetchMC})
			if err != nil {
				return core.Row{}, err
			}
			res, err := workloads.RunCG(s, par, workloads.CGScatterGather, m)
			if err != nil {
				return core.Row{}, err
			}
			mu.Lock()
			seen[res.Row.Cycles]++
			mu.Unlock()
			return res.Row, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Identical configurations must produce identical cycle counts:
		// concurrency may not perturb simulated time.
		if len(seen) != 1 {
			t.Fatalf("identical runs produced %d distinct cycle counts: %v", len(seen), seen)
		}
		for i := 1; i < len(rows); i++ {
			if rows[i] != rows[0] {
				t.Fatalf("row %d differs from row 0", i)
			}
		}
	})
}
