package harness

import (
	"context"
	"strings"
	"testing"

	"impulse/internal/core"
	"impulse/internal/obs"
	"impulse/internal/sim"
	"impulse/internal/workloads"
)

// The fast-path access engine (internal/sim/fastpath.go) must be
// invisible in everything an experiment can observe: rendered grids,
// JSON output, every counter, every trace event and every value a
// workload computes.
// These tests run the same experiments with the engine on and off and
// require byte identity. They are the acceptance gate for the engine's
// cycle-exactness contract.

// withFastPath runs f with the fast path forced on or off, restoring the
// default (on) afterwards.
func withFastPath(t *testing.T, on bool, f func()) {
	t.Helper()
	t.Cleanup(func() { SetFastPath(true) })
	SetFastPath(on)
	f()
}

// captureGrid renders g's table, its JSON form, and a registry dump of
// every observed row into one comparable string.
func captureGrid(t *testing.T, run func() (*Grid, error)) string {
	t.Helper()
	var reg obs.Registry
	core.SetRowObserver(core.CollectRows(&reg))
	defer core.SetRowObserver(nil)
	g, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := g.Render(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("\n--- json ---\n")
	if err := g.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("\n--- counters ---\n")
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// diffFastPath runs capture with the fast path on and off, each from an
// empty cell memo (the memo's identity ignores the fast path, so a warm
// memo would hand the second run the first run's rows), and requires
// identical output.
func diffFastPath(t *testing.T, capture func() string) {
	t.Helper()
	var on, off string
	withColdMemo(t, func() {
		withFastPath(t, true, func() { on = capture() })
		ResetTraceCache()
		withFastPath(t, false, func() { off = capture() })
	})
	if on != off {
		t.Errorf("output differs with fast path on\n--- fast on ---\n%s--- fast off ---\n%s", on, off)
	}
}

// TestFastPathTable1Identity: the full Table 1 grid — render, JSON, and
// all row counters — is byte-identical with the fast path on and off.
func TestFastPathTable1Identity(t *testing.T) {
	capture := func() string {
		return captureGrid(t, func() (*Grid, error) {
			return Table1(context.Background(), smallCG(), nil)
		})
	}
	diffFastPath(t, capture)
}

// TestFastPathTable2Identity: same contract for the tiled matrix-product
// grid, which exercises the store fast path heavily (tile copying).
func TestFastPathTable2Identity(t *testing.T) {
	par := workloads.MMPParams{N: 64, Tile: 16}
	capture := func() string {
		return captureGrid(t, func() (*Grid, error) {
			return Table2(context.Background(), par, nil)
		})
	}
	diffFastPath(t, capture)
}

// outcome is what one workload run returns to its caller: CG's Zeta and
// residual norm, or MMP's checksum, beside the measured row.
type outcome struct {
	values [2]float64
	row    core.Row
}

// TestFastPathTraceBytesIdentity runs one workload per mode with the fast
// path on and off and compares the full sim.TraceEvent stream — cycle,
// level, latency, bus address and Shadow flag of every load, store and
// flush — and the run's returned result. Trace events carry addresses,
// not data, so the result is what catches a fast access that moves a
// wrong value: CG's Zeta and residual norm and MMP's checksum are
// computed from values loaded through the simulator. The tile-remap and
// recolor runs commit Strided and Direct shadow lines on the fast path.
func TestFastPathTraceBytesIdentity(t *testing.T) {
	par := smallCG()
	m := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	run := func(disable bool, kind core.ControllerKind, pf core.PrefetchPolicy,
		exec func(s *core.System) (outcome, error)) (outcome, []sim.TraceEvent) {
		t.Helper()
		cfg := sim.DefaultConfig()
		cfg.DisableFastPath = disable
		s, err := core.NewSystem(core.Options{Controller: kind, Prefetch: pf, Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.ReleaseBuffers()
		var events []sim.TraceEvent
		s.SetTracer(func(e sim.TraceEvent) { events = append(events, e) })
		out, err := exec(s)
		if err != nil {
			t.Fatal(err)
		}
		return out, events
	}
	cg := func(mode workloads.CGMode) func(s *core.System) (outcome, error) {
		return func(s *core.System) (outcome, error) {
			res, err := workloads.RunCG(s, par, mode, m)
			return outcome{[2]float64{res.Zeta, res.RNorm}, res.Row}, err
		}
	}
	cases := []struct {
		name string
		kind core.ControllerKind
		pf   core.PrefetchPolicy
		exec func(s *core.System) (outcome, error)
	}{
		{"cg-conventional", core.Conventional, core.PrefetchNone, cg(workloads.CGConventional)},
		{"cg-scatter-gather", core.Impulse, core.PrefetchMC, cg(workloads.CGScatterGather)},
		{"cg-recolor", core.Impulse, core.PrefetchL1, cg(workloads.CGRecolor)},
		{"mmp-tile-remap", core.Impulse, core.PrefetchBoth, func(s *core.System) (outcome, error) {
			res, err := workloads.RunMMP(s, workloads.MMPParams{N: 48, Tile: 16}, workloads.MMPTileRemap)
			return outcome{[2]float64{res.Checksum}, res.Row}, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			on, onEvents := run(false, tc.kind, tc.pf, tc.exec)
			off, offEvents := run(true, tc.kind, tc.pf, tc.exec)
			if on != off {
				t.Errorf("returned result differs:\nfast on  %+v\nfast off %+v", on, off)
			}
			for i := range offEvents {
				if i >= len(onEvents) || onEvents[i] != offEvents[i] {
					t.Fatalf("trace event %d of %d differs:\nfast on  %+v\nfast off %+v",
						i, len(offEvents), onEvents[min(i, len(onEvents)-1)], offEvents[i])
				}
			}
			if len(onEvents) != len(offEvents) {
				t.Fatalf("fast path on emitted %d trace events, off %d", len(onEvents), len(offEvents))
			}
		})
	}
}

// TestFastPathFamiliesIdentity runs every sweep family's fast geometry
// with the fast path on and off and requires identical rendered output.
// This covers the workloads the table grids do not reach (superpage,
// IPC gather, DB scans, strided gathers, multi-process scheduling).
func TestFastPathFamiliesIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("family sweep differentials are slow; run without -short")
	}
	for _, f := range Families() {
		t.Run(f.Name, func(t *testing.T) {
			capture := func() string {
				var b strings.Builder
				if err := f.Run(context.Background(), true, &b); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}
			diffFastPath(t, capture)
		})
	}
}
