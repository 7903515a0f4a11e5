// Allocation budgets for the simulation hot path and per-cell setup.
// The fast-path access engine only pays off if a simulated L1 hit stays
// allocation-free, and the membuf/kernel pooling only pays off if a
// warm sweep cell stops re-allocating its big buffers; these tests pin
// both so a regression shows up as a test failure, not a slow sweep.
package impulse_test

import (
	"testing"

	"impulse"
	"impulse/internal/obs"
	"impulse/internal/workloads"
)

// TestSimHotPathAllocs requires the steady-state access path — repeat
// loads and stores hitting the same resident L1 line, ordinary or
// remapped, and the loop kernels over resident lines — to allocate
// nothing at all.
func TestSimHotPathAllocs(t *testing.T) {
	s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse})
	if err != nil {
		t.Fatal(err)
	}
	x := s.MustAlloc(4096, 0)
	s.StoreF64(x, 1.5)
	s.LoadF64(x)
	if avg := testing.AllocsPerRun(1000, func() { s.LoadF64(x) }); avg != 0 {
		t.Errorf("L1-hit load allocates %.2f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.StoreF64(x, 2.5) }); avg != 0 {
		t.Errorf("L1-hit store allocates %.2f per op, want 0", avg)
	}

	// The loop kernels over resident lines: a dot product, and a sparse
	// row product whose column indices (zeros) sit beside its values.
	idx := x + 256
	s.DotF64(0, x, 8, x+64, 8, 4, 6)
	s.IndexedDotF64(0, idx, x, x+64, 0, 4, 4)
	if avg := testing.AllocsPerRun(1000, func() { s.DotF64(0, x, 8, x+64, 8, 4, 6) }); avg != 0 {
		t.Errorf("DotF64 over resident lines allocates %.2f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.IndexedDotF64(0, idx, x, x+64, 0, 4, 4) }); avg != 0 {
		t.Errorf("IndexedDotF64 over resident lines allocates %.2f per op, want 0", avg)
	}

	// The same on a remapped line: a strided alias resident in the L1.
	s, x = residentShadowLine(t)
	if avg := testing.AllocsPerRun(1000, func() { s.LoadF64(x) }); avg != 0 {
		t.Errorf("shadow L1-hit load allocates %.2f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.StoreF64(x, 2.5) }); avg != 0 {
		t.Errorf("shadow L1-hit store allocates %.2f per op, want 0", avg)
	}
}

// TestSimHotPathAllocsWithHub is the zero-cost-when-disabled guarantee
// for the observability layer at the allocation level: attaching a hub
// with tracing and series disabled (their zero config) must leave the
// steady-state access path at zero allocations per op — every
// instrumentation site reduces to a nil check.
func TestSimHotPathAllocsWithHub(t *testing.T) {
	s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachObs(obs.New(obs.Config{}))
	x := s.MustAlloc(4096, 0)
	s.StoreF64(x, 1.5)
	s.LoadF64(x)
	if avg := testing.AllocsPerRun(1000, func() { s.LoadF64(x) }); avg != 0 {
		t.Errorf("L1-hit load with hub attached allocates %.2f per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.StoreF64(x, 2.5) }); avg != 0 {
		t.Errorf("L1-hit store with hub attached allocates %.2f per op, want 0", avg)
	}
}

// TestCellSetupAllocBudget bounds the allocations of one complete sweep
// cell (system construction, workload run, buffer release) once the
// membuf/kernel pools are warm. The budget is generous — the point is
// to catch a regression back to per-cell page-table and DRAM-frame
// churn (historically ~1.7k allocations per cell), not to pin the exact
// count.
func TestCellSetupAllocBudget(t *testing.T) {
	par := workloads.CGParams{N: 240, Nonzer: 4, Niter: 1, CGIts: 2, Shift: 10, RCond: 0.1}
	m := impulse.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	cell := func() {
		s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse, Prefetch: impulse.PrefetchMC})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := impulse.RunCG(s, par, impulse.CGScatterGather, m); err != nil {
			t.Fatal(err)
		}
		s.ReleaseBuffers()
	}
	cell() // warm the pools
	const budget = 1200
	if avg := testing.AllocsPerRun(5, cell); avg > budget {
		t.Errorf("warm sweep cell allocates %.0f per run, budget %d", avg, budget)
	}
}
