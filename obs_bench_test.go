package impulse_test

import (
	"fmt"
	"testing"

	"impulse"
	"impulse/internal/mc"
	"impulse/internal/obs"
	"impulse/internal/workloads"
)

// runDiag runs the Figure 1 diagonal kernel on a fresh machine, with or
// without an observability hub attached, and returns the simulated
// cycle count. The impulse configuration exercises the instrumented
// shadow-gather path as well as bus/DRAM/cache sites.
func runDiag(tb testing.TB, kind impulse.Options, hub *obs.Hub) uint64 {
	tb.Helper()
	s, err := impulse.NewSystem(kind)
	if err != nil {
		tb.Fatal(err)
	}
	if hub != nil {
		s.AttachObs(hub)
	}
	res, err := workloads.RunDiagonal(s, 256, 2, kind.Controller == impulse.Impulse)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Row.Cycles
}

// TestObsDoesNotPerturbTiming is the guarantee the whole obs layer rests
// on: attaching a hub — with tracing and the windowed series both
// enabled — must not change a single simulated cycle or any counter.
func TestObsDoesNotPerturbTiming(t *testing.T) {
	t.Parallel()
	for _, kind := range []impulse.Options{
		{Controller: impulse.Conventional},
		{Controller: impulse.Impulse},
		{Controller: impulse.Impulse, Prefetch: impulse.PrefetchBoth},
	} {
		bare := runDiag(t, kind, nil)
		hub := obs.New(obs.Config{TraceLimit: 1 << 20, Window: 1000})
		observed := runDiag(t, kind, hub)
		if bare != observed {
			t.Errorf("%v/%v: observability changed timing: %d cycles bare, %d observed",
				kind.Controller, kind.Prefetch, bare, observed)
		}
		if hub.Trace().Len() == 0 {
			t.Errorf("%v/%v: hub attached but no spans recorded", kind.Controller, kind.Prefetch)
		}
	}
}

// BenchmarkObsOverhead measures the cost of the instrumentation sites on
// the host. "disabled" is the pay-for-what-you-use case — every site does
// one nil-pointer comparison and nothing else, which must stay within
// noise (≤2%) of an uninstrumented build. "enabled" records full span
// tracing plus the windowed series, bounding the worst-case cost of
// turning everything on.
func BenchmarkObsOverhead(b *testing.B) {
	kind := impulse.Options{Controller: impulse.Impulse}
	b.Run("disabled", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			cycles = runDiag(b, kind, nil)
		}
		b.ReportMetric(float64(cycles), "sim-cycles")
	})
	b.Run("enabled", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			hub := obs.New(obs.Config{TraceLimit: 1 << 20, Window: 1000})
			cycles = runDiag(b, kind, hub)
		}
		b.ReportMetric(float64(cycles), "sim-cycles")
	})
}

// TestDescCountersAccumulate pins the per-slot controller counters as
// totals for the run. A tile-remapping product retargets each strided
// alias once per tile, and every retarget reinstalls the slot's
// descriptor; the mc.descN.* counters must keep counting across those
// installs, so their sums over the slots agree with the machine-wide
// MemStats counters they split.
func TestDescCountersAccumulate(t *testing.T) {
	s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse, Prefetch: impulse.PrefetchMC})
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.New(obs.Config{})
	s.AttachObs(hub)
	if _, err := impulse.RunMMP(s, impulse.MMPParams{N: 64, Tile: 16}, workloads.MMPTileRemap); err != nil {
		t.Fatal(err)
	}
	reg := hub.Reg()
	sum := func(field string) uint64 {
		var total uint64
		for i := 0; i < mc.NumDescriptors; i++ {
			name := fmt.Sprintf("mc.desc%d.%s", i, field)
			v, ok := reg.Value(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			total += v
		}
		return total
	}
	gathers, bufHits, prefetches := sum("gathers"), sum("buf_hits"), sum("prefetches")
	if bufHits != s.St.SDescPrefHits {
		t.Errorf("sum of buf_hits = %d, SDescPrefHits = %d", bufHits, s.St.SDescPrefHits)
	}
	if prefetches != s.St.SDescPrefetches {
		t.Errorf("sum of prefetches = %d, SDescPrefetches = %d", prefetches, s.St.SDescPrefetches)
	}
	if gathers+bufHits != s.St.ShadowReads {
		t.Errorf("sum of gathers+buf_hits = %d, ShadowReads = %d", gathers+bufHits, s.St.ShadowReads)
	}
	if s.St.SDescPrefHits == 0 {
		t.Error("run made no descriptor-buffer hits; the check is vacuous")
	}
}
