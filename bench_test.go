// Benchmarks that regenerate every table and figure of the paper's
// evaluation section (one benchmark per table cell), plus host-side
// microbenchmarks of the simulator itself.
//
// Each benchmark iteration runs the complete workload on a fresh
// simulated machine and reports the simulated cycle count as
// "sim-cycles" (the paper's "Time" rows) alongside the usual host
// ns/op. Geometries are reduced from the full cmd/table1 / cmd/table2
// defaults so the whole suite finishes in minutes; the shapes (who wins,
// by roughly what factor) match the bigger runs recorded in
// EXPERIMENTS.md.
package impulse_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"impulse"
	"impulse/internal/core"
	"impulse/internal/harness"
	"impulse/internal/workloads"
)

// benchCG is the Table 1 benchmark geometry: the multiplicand vector
// (64 KB) exceeds the L1 as in the paper's Class A runs.
func benchCG() impulse.CGParams {
	return impulse.CGParams{N: 8192, Nonzer: 6, Niter: 1, CGIts: 4, Shift: 10, RCond: 0.1}
}

var benchMatrix *workloads.SparseMatrix

func cgMatrix(b *testing.B) *workloads.SparseMatrix {
	b.Helper()
	if benchMatrix == nil {
		p := benchCG()
		benchMatrix = impulse.MakeA(p.N, p.Nonzer, p.RCond, p.Shift)
	}
	return benchMatrix
}

func prefetchName(pf core.PrefetchPolicy) string {
	switch pf {
	case impulse.PrefetchNone:
		return "standard"
	case impulse.PrefetchMC:
		return "impulse-prefetch"
	case impulse.PrefetchL1:
		return "l1-prefetch"
	default:
		return "both-prefetch"
	}
}

// BenchmarkTable1 regenerates the paper's Table 1: NAS conjugate
// gradient, 3 memory configurations x 4 prefetch policies.
func BenchmarkTable1(b *testing.B) {
	sections := []struct {
		name string
		mode workloads.CGMode
		kind core.ControllerKind
	}{
		{"conventional", impulse.CGConventional, impulse.Conventional},
		{"scatter-gather", impulse.CGScatterGather, impulse.Impulse},
		{"page-recoloring", impulse.CGRecolor, impulse.Impulse},
	}
	m := cgMatrix(b)
	for _, sec := range sections {
		for _, pf := range []core.PrefetchPolicy{
			impulse.PrefetchNone, impulse.PrefetchMC, impulse.PrefetchL1, impulse.PrefetchBoth,
		} {
			kind := sec.kind
			if pf == impulse.PrefetchMC || pf == impulse.PrefetchBoth {
				kind = impulse.Impulse
			}
			b.Run(sec.name+"/"+prefetchName(pf), func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					s, err := impulse.NewSystem(impulse.Options{Controller: kind, Prefetch: pf})
					if err != nil {
						b.Fatal(err)
					}
					res, err := impulse.RunCG(s, benchCG(), sec.mode, m)
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Row.Cycles
				}
				b.ReportMetric(float64(cycles), "sim-cycles")
			})
		}
	}
}

// BenchmarkTable2 regenerates the paper's Table 2: tiled matrix-matrix
// product, 3 tiling strategies x 4 prefetch policies.
func BenchmarkTable2(b *testing.B) {
	par := impulse.MMPParams{N: 256, Tile: 32}
	sections := []struct {
		name string
		mode workloads.MMPMode
		kind core.ControllerKind
	}{
		{"no-copy-tiled", impulse.MMPNoCopyTiled, impulse.Conventional},
		{"tile-copying", impulse.MMPCopyTiled, impulse.Conventional},
		{"tile-remapping", impulse.MMPTileRemap, impulse.Impulse},
	}
	for _, sec := range sections {
		for _, pf := range []core.PrefetchPolicy{
			impulse.PrefetchNone, impulse.PrefetchMC, impulse.PrefetchL1, impulse.PrefetchBoth,
		} {
			kind := sec.kind
			if pf == impulse.PrefetchMC || pf == impulse.PrefetchBoth {
				kind = impulse.Impulse
			}
			b.Run(sec.name+"/"+prefetchName(pf), func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					s, err := impulse.NewSystem(impulse.Options{Controller: kind, Prefetch: pf})
					if err != nil {
						b.Fatal(err)
					}
					res, err := impulse.RunMMP(s, par, sec.mode)
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Row.Cycles
				}
				b.ReportMetric(float64(cycles), "sim-cycles")
			})
		}
	}
}

// BenchmarkFigure1Diagonal quantifies the paper's Figure 1 example.
func BenchmarkFigure1Diagonal(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		impulse bool
		kind    core.ControllerKind
	}{
		{"conventional", false, impulse.Conventional},
		{"impulse", true, impulse.Impulse},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				s, err := impulse.NewSystem(impulse.Options{Controller: cfg.kind})
				if err != nil {
					b.Fatal(err)
				}
				res, err := impulse.RunDiagonal(s, 512, 4, cfg.impulse)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Row.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkIPCGather is the §6 message-assembly scenario.
func BenchmarkIPCGather(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		impulse bool
		kind    core.ControllerKind
	}{
		{"software", false, impulse.Conventional},
		{"impulse", true, impulse.Impulse},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				s, err := impulse.NewSystem(impulse.Options{Controller: cfg.kind})
				if err != nil {
					b.Fatal(err)
				}
				res, err := impulse.RunIPC(s, 32, 1024, 2, cfg.impulse)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Row.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkSuperpage is the [21] extension: TLB-miss elimination via
// shadow-backed superpages.
func BenchmarkSuperpage(b *testing.B) {
	for _, super := range []bool{false, true} {
		name := "4k-pages"
		if super {
			name = "superpage"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := harness.SuperpageExperiment(context.Background(), 1024, 2, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulerAblation compares the in-order DRAM scheduler the
// paper evaluated with the reordering scheduler it sketched (§2.2).
// The cell memo is reset each iteration so every iteration simulates
// every cell instead of reusing the first iteration's rows.
func BenchmarkSchedulerAblation(b *testing.B) {
	par := impulse.CGParams{N: 2048, Nonzer: 5, Niter: 1, CGIts: 2, Shift: 10, RCond: 0.1}
	for i := 0; i < b.N; i++ {
		harness.ResetTraceCache()
		if err := harness.SchedulerAblation(context.Background(), par, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Family runs the full Table 1 family (12 cells, each its
// own pool task) through the harness, as cmd/table1 does. The cell memo
// is reset per iteration so every iteration simulates all 12 cells.
func BenchmarkTable1Family(b *testing.B) {
	par := impulse.CGParams{N: 2048, Nonzer: 5, Niter: 1, CGIts: 2, Shift: 10, RCond: 0.1}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		harness.ResetTraceCache()
		g, err := impulse.Table1(par, nil)
		if err != nil {
			b.Fatal(err)
		}
		cycles = g.Baseline().Row.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkMakeA measures generating the NAS CG input matrix, which
// every uncached CG job does before it simulates: n=1900 is a cold
// service job's size, n=14000 the Table 1 grid's.
func BenchmarkMakeA(b *testing.B) {
	for _, n := range []int{1900, 14000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impulse.MakeA(n, 7, 0.1, 20)
			}
		})
	}
}

// --- Host-side microbenchmarks of the simulator itself -----------------

// BenchmarkSimL1Hit measures the host cost of a simulated L1 load hit.
func BenchmarkSimL1Hit(b *testing.B) {
	s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse})
	if err != nil {
		b.Fatal(err)
	}
	x := s.MustAlloc(4096, 0)
	s.LoadF64(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LoadF64(x)
	}
}

// BenchmarkSimDotHit measures the host cost of a simulated L1 load hit
// inside a loop kernel: DotF64 with both streams on one resident line,
// one op per load, so it reads beside BenchmarkSimL1Hit.
func BenchmarkSimDotHit(b *testing.B) {
	s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse})
	if err != nil {
		b.Fatal(err)
	}
	x := s.MustAlloc(4096, 0)
	s.LoadF64(x)
	b.ResetTimer()
	s.DotF64(0, x, 0, x+8, 0, uint64(b.N+1)/2, 0)
}

// residentShadowLine builds a system whose first strided-alias line is
// resident in the L1 and in the fast table: row 0 of a 32x32 tile of a
// 256x256 matrix, remapped as Table 2's tile remapping does, loaded once
// to fill the line and once more to populate the table.
func residentShadowLine(tb testing.TB) (*impulse.System, impulse.VAddr) {
	tb.Helper()
	s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse})
	if err != nil {
		tb.Fatal(err)
	}
	const n, t = 256, 32
	m := s.MustAlloc(n*n*8, 0)
	a, err := s.NewStridedAlias(t*8, n*8, t, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Retarget(a, m, (t-1)*n*8+t*8, impulse.Purge); err != nil {
		tb.Fatal(err)
	}
	s.LoadF64(a.VA)
	s.LoadF64(a.VA)
	return s, a.VA
}

// BenchmarkSimShadowL1Hit measures the host cost of a simulated L1 load
// hit on a remapped (strided-alias) line; beside BenchmarkSimL1Hit it
// shows what a shadow hit costs over an ordinary one.
func BenchmarkSimShadowL1Hit(b *testing.B) {
	s, x := residentShadowLine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LoadF64(x)
	}
}

// BenchmarkSimMemoryMiss measures the host cost of a simulated full
// memory access (cold line each time).
func BenchmarkSimMemoryMiss(b *testing.B) {
	s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse})
	if err != nil {
		b.Fatal(err)
	}
	const span = 8 << 20
	x := s.MustAlloc(span, 0)
	b.ResetTimer()
	off := uint64(0)
	for i := 0; i < b.N; i++ {
		s.LoadF64(x + impulse.VAddr(off))
		off = (off + 4096) % span
	}
}

// l2HitLoop builds a system and a 64 KB buffer, twice the direct-mapped
// L1, loads it once so the L2 holds it, and returns a loop body that
// loads one word every stride bytes: each line has left the L1 by the
// time the loop returns to it, so every load misses L1 and hits L2.
func l2HitLoop(b *testing.B, pf core.PrefetchPolicy, stride uint64) func() {
	b.Helper()
	s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse, Prefetch: pf})
	if err != nil {
		b.Fatal(err)
	}
	const span = 64 << 10
	x := s.MustAlloc(span, 0)
	for off := uint64(0); off < span; off += 32 {
		s.LoadF64(x + impulse.VAddr(off))
	}
	before := s.Snapshot()
	for off := uint64(0); off < span; off += stride {
		s.LoadF64(x + impulse.VAddr(off))
	}
	if st := s.Snapshot(); st.L2LoadHits-before.L2LoadHits != span/stride {
		b.Fatalf("%d of %d warm loads hit L2", st.L2LoadHits-before.L2LoadHits, span/stride)
	}
	off := uint64(0)
	return func() {
		s.LoadF64(x + impulse.VAddr(off))
		off = (off + stride) % span
	}
}

// BenchmarkSimL2Hit measures the host cost of a simulated load that
// misses L1 and hits L2 (one load per 32-byte line).
func BenchmarkSimL2Hit(b *testing.B) {
	load := l2HitLoop(b, impulse.PrefetchNone, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
}

// BenchmarkSimL1PrefetchMiss is BenchmarkSimL2Hit with the L1 next-line
// prefetcher on and a 64-byte stride that skips each prefetched line, so
// every load misses L1, hits L2 and issues a prefetch that also hits L2.
func BenchmarkSimL1PrefetchMiss(b *testing.B) {
	load := l2HitLoop(b, impulse.PrefetchL1, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
}

// l2DotWalk builds a system whose L2 holds a 64 KB buffer, twice the
// direct-mapped L1, and returns a DotF64 walk down two columns 32 KB
// apart with a 64-byte stride: the two streams share every L1 set, so
// each load misses L1 and hits L2, and a next-line prefetch fetches a
// line the walk skips. walk(n) runs n loads.
func l2DotWalk(tb testing.TB, pf core.PrefetchPolicy) (s *impulse.System, walk func(n int)) {
	tb.Helper()
	s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse, Prefetch: pf})
	if err != nil {
		tb.Fatal(err)
	}
	const span, half, stride = 64 << 10, 32 << 10, 64
	x := s.MustAlloc(span, 0)
	for off := uint64(0); off < span; off += 32 {
		s.LoadF64(x + impulse.VAddr(off))
	}
	walk = func(n int) {
		for n > 0 {
			pairs := min(n/2+n%2, half/stride)
			s.DotF64(0, x, stride, x+half, stride, uint64(pairs), 0)
			n -= 2 * pairs
		}
	}
	before := s.Snapshot()
	walk(2 * half / stride)
	if st := s.Snapshot(); st.L2LoadHits-before.L2LoadHits != 2*half/stride {
		tb.Fatalf("%d of %d warm loads hit L2", st.L2LoadHits-before.L2LoadHits, 2*half/stride)
	}
	return s, walk
}

// BenchmarkSimDotL2Hit measures the host cost of a simulated load that
// misses L1 and hits L2 inside a loop kernel, one op per load, without
// and with the L1 next-line prefetcher; it reads beside
// BenchmarkSimL2Hit and BenchmarkSimL1PrefetchMiss.
func BenchmarkSimDotL2Hit(b *testing.B) {
	for _, pf := range []struct {
		name string
		pf   core.PrefetchPolicy
	}{{"none", impulse.PrefetchNone}, {"l1", impulse.PrefetchL1}} {
		b.Run(pf.name, func(b *testing.B) {
			_, walk := l2DotWalk(b, pf.pf)
			b.ResetTimer()
			walk(b.N)
		})
	}
}

// BenchmarkSimGatherLine measures the host cost of one gathered shadow
// line (16 scattered elements through descriptor, PgTbl, and DRAM).
func BenchmarkSimGatherLine(b *testing.B) {
	s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse})
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 16
	x := s.MustAlloc(n*8, 0)
	vec := s.MustAlloc(n*4, 0)
	for k := uint64(0); k < n; k++ {
		s.Store32(vec+impulse.VAddr(4*k), uint32((k*97)%n))
	}
	alias, err := s.MapScatterGather(x, n*8, 8, vec, n, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i*16) % n
		s.LoadF64(alias + impulse.VAddr(8*k))
	}
}

// BenchmarkCholesky covers the §3.2 extension kernel.
func BenchmarkCholesky(b *testing.B) {
	for _, cfg := range []struct {
		name string
		mode workloads.CholeskyMode
		kind core.ControllerKind
	}{
		{"no-copy", workloads.CholNoCopy, impulse.Conventional},
		{"copy", workloads.CholCopy, impulse.Conventional},
		{"remap", workloads.CholRemap, impulse.Impulse},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				s, err := impulse.NewSystem(impulse.Options{Controller: cfg.kind})
				if err != nil {
					b.Fatal(err)
				}
				res, err := workloads.RunCholesky(s, 256, 32, cfg.mode)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Row.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkSpark covers the §3.1 Spark98-style extension.
func BenchmarkSpark(b *testing.B) {
	mesh := workloads.MakeSparkMesh(120, 120)
	for _, cfg := range []struct {
		name   string
		gather bool
		kind   core.ControllerKind
		pf     core.PrefetchPolicy
	}{
		{"conventional", false, impulse.Conventional, impulse.PrefetchNone},
		{"scatter-gather", true, impulse.Impulse, impulse.PrefetchMC},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				s, err := impulse.NewSystem(impulse.Options{Controller: cfg.kind, Prefetch: cfg.pf})
				if err != nil {
					b.Fatal(err)
				}
				res, err := workloads.RunSpark(s, mesh, 1, cfg.gather)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Row.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkDBScan covers the abstract's database claim.
func BenchmarkDBScan(b *testing.B) {
	p := workloads.DBParams{Records: 16 << 10, RecordBytes: 64, FieldOffset: 16}
	for _, cfg := range []struct {
		name    string
		impulse bool
		kind    core.ControllerKind
	}{
		{"projection-conventional", false, impulse.Conventional},
		{"projection-impulse", true, impulse.Impulse},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				s, err := impulse.NewSystem(impulse.Options{Controller: cfg.kind, Prefetch: impulse.PrefetchMC})
				if err != nil {
					b.Fatal(err)
				}
				res, err := workloads.RunDBProjection(s, p, cfg.impulse)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Row.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkScriptEngine measures the script front end's host overhead.
func BenchmarkScriptEngine(b *testing.B) {
	prog, err := impulse.ParseScript(`
alloc a 65536
set r1 0
repeat 8192
  store64 a r1 r1
  add r1 r1 8
end
set r1 0
repeat 8192
  load64 r2 a r1
  add r1 r1 8
end
`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s, err := impulse.NewSystem(impulse.Options{Controller: impulse.Impulse})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := impulse.RunScript(s, prog); err != nil {
			b.Fatal(err)
		}
	}
}
