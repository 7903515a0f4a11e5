package workloads

import (
	"fmt"
	"math"

	"impulse/internal/addr"
	"impulse/internal/core"
)

// CGMode selects the memory-system optimization applied to conjugate
// gradient, matching the three sections of the paper's Table 1.
type CGMode int

const (
	// CGConventional: the plain benchmark (indirection loads at the CPU).
	CGConventional CGMode = iota
	// CGScatterGather: the multiplicand vector is accessed through an
	// Impulse gather alias built over the COLUMN indirection vector
	// (§3.1 "Scatter/gather").
	CGScatterGather
	// CGRecolor: the multiplicand, DATA, and COLUMN vectors are
	// recolored so they do not conflict in the L2 (§3.1 "Page
	// recoloring": multiplicand in the first half, DATA and COLUMN in a
	// quadrant each of the second half).
	CGRecolor
)

func (m CGMode) String() string {
	switch m {
	case CGConventional:
		return "conventional"
	case CGScatterGather:
		return "scatter/gather"
	case CGRecolor:
		return "page recoloring"
	default:
		return fmt.Sprintf("CGMode(%d)", int(m))
	}
}

// CGParams sizes the benchmark. The fields mirror the NPB class table.
type CGParams struct {
	N      int     // matrix dimension
	Nonzer int     // nonzeros per generated sparse vector
	Niter  int     // outer (power-method) iterations
	CGIts  int     // inner CG iterations per solve (NPB: 25)
	Shift  float64 // diagonal shift (class-dependent)
	RCond  float64 // target condition number (0.1 in all classes)
}

// Validate checks the geometry MakeA can generate: n >= 1 and
// 1 <= nonzer <= n. Each generated vector holds nonzer distinct
// positions in [0, n), so a larger nonzer never finishes drawing.
func (p CGParams) Validate() error {
	if p.N < 1 || p.Nonzer < 1 || p.Nonzer > p.N {
		return fmt.Errorf("workloads: CG geometry n=%d nonzer=%d needs n >= 1 and 1 <= nonzer <= n", p.N, p.Nonzer)
	}
	return nil
}

// CGClassS is the NPB Class S geometry (n=1400), the largest class that
// is practical to simulate at cycle granularity; the paper's Class A
// (n=14000) has the same structure at 10x the size.
func CGClassS() CGParams {
	return CGParams{N: 1400, Nonzer: 7, Niter: 15, CGIts: 25, Shift: 10, RCond: 0.1}
}

// CGClassTiny is a reduced geometry for unit tests.
func CGClassTiny() CGParams {
	return CGParams{N: 240, Nonzer: 4, Niter: 2, CGIts: 6, Shift: 10, RCond: 0.1}
}

// CGPaperGeometry reproduces the memory-system conditions of the paper's
// CG-A experiment at simulable cost: the matrix dimension is Class A's
// n=14000, so the multiplicand vector (112 KB) exceeds the 32 KB L1 but
// fits the 256 KB L2 — the regime where scatter/gather and recoloring
// pay off — while nonzeros/row and outer iterations are reduced to keep
// the cycle count tractable. Class A proper (nonzer=11) generates
// 1,853,104 nonzeros (TestNPBClassAVerification) and took 2.8 G cycles
// on the paper's simulator. The paper's "2.19 M nonzeros" is not a
// generated count: it matches NPB 2.x's array bound for Class A,
// na·(nonzer+1)² + na·(nonzer+2) = 2,198,000.
func CGPaperGeometry() CGParams {
	return CGParams{N: 14000, Nonzer: 7, Niter: 1, CGIts: 25, Shift: 20, RCond: 0.1}
}

// CGResult carries the benchmark's numeric outputs (for verification)
// and the measured Row for the timed section.
type CGResult struct {
	Zeta  float64
	RNorm float64 // residual norm of the last solve
	NNZ   int
	Row   core.Row
}

// Instruction-overhead charges (cycles of non-memory work per step) for
// the single-issue CPU: loop control, address arithmetic, floating point.
const (
	// The conventional inner loop does the indirection index arithmetic
	// (load-shift-add addressing for x[COLUMN[j]]) on the CPU; with
	// scatter/gather that work moves to the controller, so the Impulse
	// loop carries fewer non-memory instructions per nonzero — the paper
	// notes "the read of the indirection vector occurs at the memory
	// controller" and attributes about a third of the saved cycles to the
	// reduction in instructions issued.
	cgInnerTicksConv = 4
	cgInnerTicksSG   = 2
	cgVecTicks       = 2 // per element of a vector operation
	cgOuterTicks     = 6 // per SMVP row: loop setup, store path
)

// cgState holds the simulated-memory layout of the benchmark.
type cgState struct {
	s   *core.System
	m   *SparseMatrix
	n   int
	nnz int

	rows addr.VAddr // int32[n+1]
	cols addr.VAddr // uint32[nnz]
	vals addr.VAddr // float64[nnz]
	x    addr.VAddr // float64[n]
	z    addr.VAddr
	p    addr.VAddr
	q    addr.VAddr
	r    addr.VAddr

	mode  CGMode
	alias addr.VAddr // gather alias p'[j] = p[COLUMN[j]]
}

// RunCG executes the NAS CG benchmark on s with the given mode. The
// matrix m must come from MakeA with par's geometry (callers generate it
// once and share it across the configurations of a table). Setup (array
// population) is untimed, NPB-style; remapping calls and all consistency
// flushes are inside the timed section.
func RunCG(s *core.System, par CGParams, mode CGMode, m *SparseMatrix) (CGResult, error) {
	if m.N != par.N {
		return CGResult{}, fmt.Errorf("workloads: matrix dimension %d != params %d", m.N, par.N)
	}
	c := &cgState{s: s, m: m, n: par.N, nnz: m.NNZ(), mode: mode}
	if err := c.setup(); err != nil {
		return CGResult{}, err
	}

	sec := s.BeginSection()
	if err := c.applyMode(); err != nil {
		return CGResult{}, err
	}

	var zeta, rnorm float64
	for it := 0; it < par.Niter; it++ {
		rnorm = c.conjGrad(par.CGIts)
		// zeta = shift + 1/(x·z); then x = z/||z||.
		xz := c.dot(c.x, c.z)
		zeta = par.Shift + 1/xz
		s.Tick(20)
		znorm := math.Sqrt(c.dot(c.z, c.z))
		c.scale(c.x, c.z, 1/znorm)
	}

	row, err := sec.End(fmt.Sprintf("CG %v/%v", mode, s.Prefetch()))
	if err != nil {
		return CGResult{}, err
	}
	return CGResult{Zeta: zeta, RNorm: rnorm, NNZ: c.nnz, Row: row}, nil
}

// setup allocates and populates the simulated arrays (untimed: NPB does
// not time initialization).
func (c *cgState) setup() error {
	s := c.s
	var err error
	allocs := []struct {
		dst   *addr.VAddr
		bytes uint64
	}{
		{&c.rows, uint64(c.n+1) * 4},
		{&c.cols, uint64(c.nnz) * 4},
		{&c.vals, uint64(c.nnz) * 8},
		{&c.x, uint64(c.n) * 8},
		{&c.z, uint64(c.n) * 8},
		{&c.p, uint64(c.n) * 8},
		{&c.q, uint64(c.n) * 8},
		{&c.r, uint64(c.n) * 8},
	}
	for _, a := range allocs {
		if *a.dst, err = s.Alloc(a.bytes, 0); err != nil {
			return err
		}
	}
	s.StoreStreamI32(c.rows, c.m.Rows)
	s.StoreStreamU32(c.cols, c.m.Cols)
	s.StoreStreamF64(c.vals, c.m.Vals)
	s.FillStreamF64(c.x, 1.0, uint64(c.n))
	return nil
}

// applyMode performs the Impulse setup calls for the selected mode.
func (c *cgState) applyMode() error {
	s := c.s
	switch c.mode {
	case CGConventional:
		return nil
	case CGScatterGather:
		// Place x' half an L1 away from DATA: the inner loop reads
		// DATA[j] and x'[j] in lockstep, and matching L1 offsets would
		// conflict every iteration in the direct-mapped VIPT L1.
		l1 := s.Config().L1.Bytes
		l1Off := (uint64(c.vals) + l1/2) % l1
		alias, err := s.MapScatterGather(c.p, uint64(c.n)*8, 8, c.cols, uint64(c.nnz), l1Off)
		if err != nil {
			return err
		}
		c.alias = alias
		return nil
	case CGRecolor:
		// Multiplicand vector into the first half of the L2; DATA and
		// COLUMN each into a quadrant of the second half (§4.1).
		nc := s.K.NumColors()
		if err := s.Recolor(c.p, uint64(c.n)*8, 0, nc/2-1); err != nil {
			return err
		}
		if err := s.Recolor(c.vals, uint64(c.nnz)*8, nc/2, 3*nc/4-1); err != nil {
			return err
		}
		return s.Recolor(c.cols, uint64(c.nnz)*4, 3*nc/4, nc-1)
	default:
		return fmt.Errorf("workloads: unknown CG mode %v", c.mode)
	}
}

// conjGrad runs one CG solve (NPB conj_grad) and returns the residual
// norm ||x - A z||.
func (c *cgState) conjGrad(cgits int) float64 {
	s := c.s
	// z = 0; r = x; p = r.
	for i := 0; i < c.n; i++ {
		o := addr.VAddr(8 * i)
		s.StoreF64(c.z+o, 0)
		xi := s.LoadF64(c.x + o)
		s.StoreF64(c.r+o, xi)
		s.StoreF64(c.p+o, xi)
		s.Tick(cgVecTicks)
	}
	rho := c.dot(c.r, c.r)

	for cgit := 0; cgit < cgits; cgit++ {
		c.smvp(c.q, c.p)
		d := c.dot(c.p, c.q)
		alpha := rho / d
		s.Tick(10)
		c.axpy(c.z, alpha, c.p)  // z += alpha p
		c.axpy(c.r, -alpha, c.q) // r -= alpha q
		rho0 := rho
		rho = c.dot(c.r, c.r)
		beta := rho / rho0
		s.Tick(10)
		c.xpby(c.p, c.r, beta) // p = r + beta p
	}

	// rnorm = ||x - A z||. This final product uses the plain kernel in
	// every mode: the gather alias is bound to p, not z.
	c.smvpConventional(c.r, c.z)
	var sum float64
	for i := 0; i < c.n; i++ {
		o := addr.VAddr(8 * i)
		dlt := s.LoadF64(c.x+o) - s.LoadF64(c.r+o)
		sum += dlt * dlt
		s.Tick(cgVecTicks)
	}
	return math.Sqrt(sum)
}

// smvp computes dst = A * src where src must be c.p (the vector the
// gather alias is bound to in scatter/gather mode).
func (c *cgState) smvp(dst, src addr.VAddr) {
	if c.mode == CGScatterGather {
		s := c.s
		// Consistency protocol (§2.3): the CPU's dirty copy of p must
		// reach DRAM before the controller gathers it, and stale gathered
		// lines (CPU caches and controller buffers) must be dropped.
		s.FlushVRange(c.p, uint64(c.n)*8)
		s.PurgeVRange(c.alias, uint64(c.nnz)*8)
		s.MC.InvalidateBuffers()
		c.smvpGather(dst)
		return
	}
	c.smvpConventional(dst, src)
}

// smvpConventional is Figure 4's loop: the indirection load of COLUMN[j]
// and the dependent sparse load of src[COLUMN[j]] are both issued by the
// CPU.
func (c *cgState) smvpConventional(dst, src addr.VAddr) {
	s := c.s
	rowPrev := s.Load32(c.rows)
	for i := 0; i < c.n; i++ {
		rowNext := s.Load32(c.rows + addr.VAddr(4*(i+1)))
		sum := s.IndexedDotF64(0, c.cols, c.vals, src, uint64(rowPrev), uint64(rowNext), cgInnerTicksConv)
		s.StoreF64(dst+addr.VAddr(8*i), sum)
		s.Tick(cgOuterTicks)
		rowPrev = rowNext
	}
}

// smvpGather is §3.1's optimized loop: "sum += DATA[j] * x'[j]". The
// indirection read happens at the memory controller, so the CPU issues
// one load fewer per nonzero and the gathered lines are 100% useful.
func (c *cgState) smvpGather(dst addr.VAddr) {
	s := c.s
	rowPrev := s.Load32(c.rows)
	for i := 0; i < c.n; i++ {
		rowNext := s.Load32(c.rows + addr.VAddr(4*(i+1)))
		o := addr.VAddr(8 * uint64(rowPrev))
		nz := uint64(max(rowNext, rowPrev) - rowPrev) // rows are monotone; a broken one has no nonzeros
		sum := s.DotF64(0, c.vals+o, 8, c.alias+o, 8, nz, cgInnerTicksSG)
		s.StoreF64(dst+addr.VAddr(8*i), sum)
		s.Tick(cgOuterTicks)
		rowPrev = rowNext
	}
}

func (c *cgState) dot(a, b addr.VAddr) float64 {
	return c.s.DotF64(0, a, 8, b, 8, uint64(c.n), cgVecTicks)
}

// axpy: dst += alpha * src.
func (c *cgState) axpy(dst addr.VAddr, alpha float64, src addr.VAddr) {
	s := c.s
	for i := 0; i < c.n; i++ {
		o := addr.VAddr(8 * i)
		s.StoreF64(dst+o, s.LoadF64(dst+o)+alpha*s.LoadF64(src+o))
		s.Tick(cgVecTicks)
	}
}

// xpby: dst = src + beta * dst.
func (c *cgState) xpby(dst, src addr.VAddr, beta float64) {
	s := c.s
	for i := 0; i < c.n; i++ {
		o := addr.VAddr(8 * i)
		s.StoreF64(dst+o, s.LoadF64(src+o)+beta*s.LoadF64(dst+o))
		s.Tick(cgVecTicks)
	}
}

// scale: dst = src * f.
func (c *cgState) scale(dst, src addr.VAddr, f float64) {
	s := c.s
	for i := 0; i < c.n; i++ {
		o := addr.VAddr(8 * i)
		s.StoreF64(dst+o, s.LoadF64(src+o)*f)
		s.Tick(cgVecTicks)
	}
}

// RefCG is the host-side reference: the identical computation in plain
// Go, used to verify that every memory-system configuration computes the
// same answer. The arithmetic order matches the simulated kernels, so
// results agree bit-for-bit.
func RefCG(m *SparseMatrix, par CGParams) (zeta, rnorm float64) {
	n := par.N
	x := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)
	r := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	dot := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	for it := 0; it < par.Niter; it++ {
		for i := 0; i < n; i++ {
			z[i], r[i], p[i] = 0, x[i], x[i]
		}
		rho := dot(r, r)
		for cgit := 0; cgit < par.CGIts; cgit++ {
			m.MulVec(q, p)
			alpha := rho / dot(p, q)
			for i := 0; i < n; i++ {
				z[i] += alpha * p[i]
			}
			for i := 0; i < n; i++ {
				r[i] += -alpha * q[i]
			}
			rho0 := rho
			rho = dot(r, r)
			beta := rho / rho0
			for i := 0; i < n; i++ {
				p[i] = r[i] + beta*p[i]
			}
		}
		m.MulVec(r, z)
		var sum float64
		for i := 0; i < n; i++ {
			d := x[i] - r[i]
			sum += d * d
		}
		rnorm = math.Sqrt(sum)
		zeta = par.Shift + 1/dot(x, z)
		znorm := math.Sqrt(dot(z, z))
		for i := 0; i < n; i++ {
			x[i] = z[i] * (1 / znorm)
		}
	}
	return zeta, rnorm
}
