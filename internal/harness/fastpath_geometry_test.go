package harness

import (
	"testing"

	"impulse/internal/core"
	"impulse/internal/obs"
	"impulse/internal/sim"
	"impulse/internal/workloads"
)

// TestFastPathL1GeometryIdentity runs tiny CG and MMP n=64 with the fast
// path on and off on an L1 geometry no experiment builds: a 2-way L1,
// whose fast table probes the ways of a set and applies the L1's LRU
// update. Every returned result, row and trace event must match.
func TestFastPathL1GeometryIdentity(t *testing.T) {
	par := workloads.CGParams{N: 240, Nonzer: 4, Niter: 1, CGIts: 2, Shift: 10, RCond: 0.1}
	a := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	mmp := workloads.MMPParams{N: 64, Tile: 16}
	cg := func(mode workloads.CGMode) func(s *core.System) (outcome, error) {
		return func(s *core.System) (outcome, error) {
			res, err := workloads.RunCG(s, par, mode, a)
			return outcome{[2]float64{res.Zeta, res.RNorm}, res.Row}, err
		}
	}
	mm := func(mode workloads.MMPMode) func(s *core.System) (outcome, error) {
		return func(s *core.System) (outcome, error) {
			res, err := workloads.RunMMP(s, mmp, mode)
			return outcome{[2]float64{res.Checksum}, res.Row}, err
		}
	}
	runs := []struct {
		name string
		kind core.ControllerKind
		pf   core.PrefetchPolicy
		exec func(s *core.System) (outcome, error)
	}{
		{"cg-conventional", core.Conventional, core.PrefetchNone, cg(workloads.CGConventional)},
		{"cg-scatter-gather", core.Impulse, core.PrefetchMC, cg(workloads.CGScatterGather)},
		{"cg-recolor", core.Impulse, core.PrefetchL1, cg(workloads.CGRecolor)},
		{"mmp-no-copy", core.Conventional, core.PrefetchL1, mm(workloads.MMPNoCopyTiled)},
		{"mmp-tile-copy", core.Conventional, core.PrefetchNone, mm(workloads.MMPCopyTiled)},
		{"mmp-tile-remap", core.Impulse, core.PrefetchBoth, mm(workloads.MMPTileRemap)},
	}
	for _, r := range runs {
		t.Run("2way-vipt/"+r.name, func(t *testing.T) {
			run := func(disable bool) (outcome, []sim.TraceEvent, uint64) {
				cfg := sim.DefaultConfig()
				cfg.L1.Ways = 2
				cfg.DisableFastPath = disable
				s, err := core.NewSystem(core.Options{Controller: r.kind, Prefetch: r.pf, Config: &cfg})
				if err != nil {
					t.Fatal(err)
				}
				defer s.ReleaseBuffers()
				h := obs.New(obs.Config{})
				s.AttachObs(h)
				var events []sim.TraceEvent
				s.SetTracer(func(e sim.TraceEvent) { events = append(events, e) })
				out, err := r.exec(s)
				if err != nil {
					t.Fatal(err)
				}
				hits, _ := h.Reg().Value("sim.fast.hits")
				return out, events, hits
			}
			on, onEvents, hits := run(false)
			off, offEvents, _ := run(true)
			if hits == 0 {
				t.Error("no access committed on the fast table")
			}
			if on != off {
				t.Errorf("returned result differs:\nfast on  %+v\nfast off %+v", on, off)
			}
			if len(onEvents) != len(offEvents) {
				t.Fatalf("fast path on emitted %d trace events, off %d", len(onEvents), len(offEvents))
			}
			for i := range offEvents {
				if onEvents[i] != offEvents[i] {
					t.Fatalf("trace event %d of %d differs:\nfast on  %+v\nfast off %+v",
						i, len(offEvents), onEvents[i], offEvents[i])
				}
			}
		})
	}
}
