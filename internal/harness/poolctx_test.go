package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"impulse/internal/core"
)

// TestRunCtxCancelBlockedWorker: a worker blocked inside a task unblocks
// on TaskCtx.Ctx when the run's context is cancelled, and RunCtx
// surfaces ctx.Err() — the mechanism a cancelled service job uses to
// stop a grid mid-flight instead of running it to completion.
func TestRunCtxCancelBlockedWorker(t *testing.T) {
	withWorkers(2, func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var startedOnce sync.Once
		started := make(chan struct{})
		go func() {
			<-started
			cancel()
		}()
		_, err := RunCtx(ctx, 4, func(i int, tc *TaskCtx) (int, error) {
			startedOnce.Do(func() { close(started) })
			select {
			case <-tc.Ctx.Done():
				return 0, tc.Ctx.Err()
			case <-time.After(30 * time.Second):
				return 0, errors.New("task never saw cancellation")
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

// TestRunCtxPreCancelledRunsNothing: with the context already cancelled,
// no task body executes and the result is ctx.Err().
func TestRunCtxPreCancelledRunsNothing(t *testing.T) {
	withWorkers(4, func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		_, err := RunCtx(ctx, 16, func(i int, tc *TaskCtx) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("%d tasks ran under a pre-cancelled context", n)
		}
	})
}

// TestRunCtxCancellationBeatsTaskError: when the context is cancelled,
// RunCtx reports ctx.Err() even if some task also failed — otherwise the
// surfaced error would depend on scheduling.
func TestRunCtxCancellationBeatsTaskError(t *testing.T) {
	withWorkers(2, func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err := RunCtx(ctx, 2, func(i int, tc *TaskCtx) (int, error) {
			cancel()
			return 0, errors.New("task-level failure")
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled to win over task errors", err)
		}
	})
}

// TestWithRowSinkRoutesRows: rows observed by pool tasks land in the
// context's sink, in submission order, and never reach the global
// observer — the isolation that lets concurrent service jobs each keep
// their own counter registry.
func TestWithRowSinkRoutesRows(t *testing.T) {
	withWorkers(4, func() {
		var globalRows atomic.Int64
		core.SetRowObserver(func(core.Row) { globalRows.Add(1) })
		defer core.SetRowObserver(nil)

		var got []string
		ctx := WithRowSink(context.Background(), func(r core.Row) {
			got = append(got, r.Label)
		})
		want := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
		_, err := RunCtx(ctx, len(want), func(i int, tc *TaskCtx) (int, error) {
			tc.Observe(core.Row{Label: want[i]})
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("sink saw %d rows, want %d", len(got), len(want))
		}
		for i, l := range got {
			if l != want[i] {
				t.Errorf("row %d = %q, want %q (submission order)", i, l, want[i])
			}
		}
		if n := globalRows.Load(); n != 0 {
			t.Errorf("global observer saw %d rows despite an installed sink", n)
		}
	})
}
