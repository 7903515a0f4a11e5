package workloads

import (
	"fmt"

	"impulse/internal/addr"
	"impulse/internal/core"
)

// MMPMode selects the tiling strategy for dense matrix-matrix product,
// matching the three sections of the paper's Table 2.
type MMPMode int

const (
	// MMPNoCopyTiled: conventional tiling in place (the baseline).
	MMPNoCopyTiled MMPMode = iota
	// MMPCopyTiled: software tile copying into contiguous buffers.
	MMPCopyTiled
	// MMPTileRemap: Impulse base-stride remapping of tiles into
	// contiguous shadow tiles, with the three aliases pinned to distinct
	// segments of the virtually-indexed L1 (§3.2).
	MMPTileRemap
)

func (m MMPMode) String() string {
	switch m {
	case MMPNoCopyTiled:
		return "no-copy tiled"
	case MMPCopyTiled:
		return "tile copying"
	case MMPTileRemap:
		return "tile remapping"
	default:
		return fmt.Sprintf("MMPMode(%d)", int(m))
	}
}

// MMPParams sizes the product C = A * B. N must be a multiple of Tile;
// Tile*8 must be a power of two and a multiple of the L2 line (128 B), the
// paper's alignment restrictions (§4.2: "tile sizes must be a multiple of
// a cache line ... arrays must be padded so that tiles are aligned").
type MMPParams struct {
	N    int
	Tile int
}

// MMPDefault matches the paper's tile geometry at simulator-friendly
// scale (the paper's 512x512 is available via the harness flags).
func MMPDefault() MMPParams { return MMPParams{N: 256, Tile: 32} }

// MMPTiny is a reduced geometry for unit tests.
func MMPTiny() MMPParams { return MMPParams{N: 64, Tile: 16} }

// Validate checks the geometry.
func (p MMPParams) Validate() error {
	if p.N <= 0 || p.Tile <= 0 || p.N%p.Tile != 0 {
		return fmt.Errorf("workloads: N=%d must be a positive multiple of Tile=%d", p.N, p.Tile)
	}
	rowBytes := uint64(p.Tile) * 8
	if rowBytes&(rowBytes-1) != 0 || rowBytes%128 != 0 {
		return fmt.Errorf("workloads: tile row (%d bytes) must be a power of two and 128-byte aligned", rowBytes)
	}
	return nil
}

// mmpInnerTicks is the non-memory work per multiply-accumulate on the
// single-issue PA-RISC model: FMPY and FADD issue plus the dependent
// floating-point latency of the sum chain, index update, and branch.
const mmpInnerTicks = 6

// MMPResult carries the checksum (for verification) and the measured Row.
type MMPResult struct {
	Checksum float64
	Row      core.Row
}

// RunMMP computes C = A * B with the chosen tiling strategy. A and B are
// filled with a deterministic pattern (untimed); the product loop,
// including all copies, remaps, and flushes, is timed.
func RunMMP(s *core.System, par MMPParams, mode MMPMode) (MMPResult, error) {
	if err := par.Validate(); err != nil {
		return MMPResult{}, err
	}
	n := uint64(par.N)
	bytes := n * n * 8
	a, err := s.Alloc(bytes, 0)
	if err != nil {
		return MMPResult{}, err
	}
	b, err := s.Alloc(bytes, 0)
	if err != nil {
		return MMPResult{}, err
	}
	cm, err := s.Alloc(bytes, 0)
	if err != nil {
		return MMPResult{}, err
	}
	// Deterministic inputs (untimed setup). The a and b stores stay
	// interleaved element by element: the cache and clock state they
	// leave behind feeds the timed section, so reordering them into two
	// streams would change measured results.
	for i := uint64(0); i < n; i++ {
		for j := uint64(0); j < n; j++ {
			s.StoreF64(a+addr.VAddr(8*(i*n+j)), float64((i*7+j*3)%13)-6)
			s.StoreF64(b+addr.VAddr(8*(i*n+j)), float64((i*5+j*11)%17)-8)
		}
	}

	sec := s.BeginSection()
	switch mode {
	case MMPNoCopyTiled:
		err = mmpNoCopy(s, par, a, b, cm)
	case MMPCopyTiled:
		err = mmpCopy(s, par, a, b, cm)
	case MMPTileRemap:
		err = mmpRemap(s, par, a, b, cm)
	default:
		err = fmt.Errorf("workloads: unknown MMP mode %v", mode)
	}
	if err != nil {
		return MMPResult{}, err
	}
	row, err := sec.End(fmt.Sprintf("MMP %v/%v", mode, s.Prefetch()))
	if err != nil {
		return MMPResult{}, err
	}

	// Checksum (untimed): fold every element of C.
	var sum float64
	s.LoadStreamF64(cm, n*n, func(i uint64, v float64) {
		sum += v * float64(i%7+1)
	})
	return MMPResult{Checksum: sum, Row: row}, nil
}

// mmpNoCopy is conventional tiling over the original layout: tiles are
// non-contiguous, so they conflict with each other (and themselves) in
// the caches — the difficulty §3.2 describes.
func mmpNoCopy(s *core.System, par MMPParams, a, b, c addr.VAddr) error {
	n, t := uint64(par.N), uint64(par.Tile)
	at := func(m addr.VAddr, i, j uint64) addr.VAddr { return m + addr.VAddr(8*(i*n+j)) }
	for i0 := uint64(0); i0 < n; i0 += t {
		for j0 := uint64(0); j0 < n; j0 += t {
			for k0 := uint64(0); k0 < n; k0 += t {
				for i := i0; i < i0+t; i++ {
					for j := j0; j < j0+t; j++ {
						// Row i of the A tile against column j of the B tile.
						sum := s.LoadF64(at(c, i, j))
						sum = s.DotF64(sum, at(a, i, k0), 8, at(b, k0, j), 8*n, t, mmpInnerTicks)
						s.StoreF64(at(c, i, j), sum)
						s.Tick(2)
					}
				}
			}
		}
	}
	return nil
}

// mmpCopy copies each tile into a contiguous buffer before use ("tiles
// must be copied into non-conflicting regions of memory (which is
// expensive)", §3.2). The three buffers are contiguous, so together they
// occupy 3 distinct regions of the L1 with no mutual conflicts.
func mmpCopy(s *core.System, par MMPParams, a, b, c addr.VAddr) error {
	n, t := uint64(par.N), uint64(par.Tile)
	tileBytes := t * t * 8
	bufA, err := s.Alloc(tileBytes, s.Config().L1.Bytes)
	if err != nil {
		return err
	}
	bufB, err := s.Alloc(tileBytes, 0)
	if err != nil {
		return err
	}
	bufC, err := s.Alloc(tileBytes, 0)
	if err != nil {
		return err
	}
	copyIn := func(buf, m addr.VAddr, r0, c0 uint64) {
		for i := uint64(0); i < t; i++ {
			for j := uint64(0); j < t; j++ {
				v := s.LoadF64(m + addr.VAddr(8*((r0+i)*n+c0+j)))
				s.StoreF64(buf+addr.VAddr(8*(i*t+j)), v)
				s.Tick(1)
			}
		}
	}
	copyOut := func(buf, m addr.VAddr, r0, c0 uint64) {
		for i := uint64(0); i < t; i++ {
			for j := uint64(0); j < t; j++ {
				v := s.LoadF64(buf + addr.VAddr(8*(i*t+j)))
				s.StoreF64(m+addr.VAddr(8*((r0+i)*n+c0+j)), v)
				s.Tick(1)
			}
		}
	}
	for i0 := uint64(0); i0 < n; i0 += t {
		for j0 := uint64(0); j0 < n; j0 += t {
			copyIn(bufC, c, i0, j0)
			for k0 := uint64(0); k0 < n; k0 += t {
				copyIn(bufA, a, i0, k0)
				copyIn(bufB, b, k0, j0)
				mulTiles(s, t, bufA, bufB, bufC)
			}
			copyOut(bufC, c, i0, j0)
		}
	}
	return nil
}

// mulTiles multiplies two contiguous t x t tiles into a third.
func mulTiles(s *core.System, t uint64, ta, tb, tc addr.VAddr) {
	for i := uint64(0); i < t; i++ {
		for j := uint64(0); j < t; j++ {
			sum := s.LoadF64(tc + addr.VAddr(8*(i*t+j)))
			sum = s.DotF64(sum, ta+addr.VAddr(8*i*t), 8, tb+addr.VAddr(8*j), 8*t, t, mmpInnerTicks)
			s.StoreF64(tc+addr.VAddr(8*(i*t+j)), sum)
			s.Tick(2)
		}
	}
}

// mmpRemap uses Impulse base-stride remapping: three strided aliases make
// the current A, B, and C tiles contiguous in shadow space, and their
// virtual placement pins each to its own segment of the virtually-indexed
// L1 ("we divide the L1 cache into three segments. In each segment we
// keep a tile", §3.2). A and B tiles are purged on remap; C is flushed so
// its dirty lines scatter back (§3.2's consistency requirement).
func mmpRemap(s *core.System, par MMPParams, a, b, c addr.VAddr) error {
	n, t := uint64(par.N), uint64(par.Tile)
	rowBytes := t * 8
	strideBytes := n * 8
	tileSpan := (t-1)*n*8 + rowBytes // footprint of one tile in the matrix
	seg := s.Config().L1.Bytes / 4   // 8 KB segments for the paper geometry

	mk := func(l1Off uint64) (*core.StridedAlias, error) {
		return s.NewStridedAlias(rowBytes, strideBytes, t, l1Off)
	}
	ta, err := mk(0)
	if err != nil {
		return err
	}
	tb, err := mk(seg)
	if err != nil {
		return err
	}
	tc, err := mk(2 * seg)
	if err != nil {
		return err
	}
	defer func() { s.Release(ta); s.Release(tb); s.Release(tc) }()

	tileBase := func(m addr.VAddr, r0, c0 uint64) addr.VAddr {
		return m + addr.VAddr(8*(r0*n+c0))
	}
	for i0 := uint64(0); i0 < n; i0 += t {
		for j0 := uint64(0); j0 < n; j0 += t {
			if err := s.Retarget(tc, tileBase(c, i0, j0), tileSpan, core.Flush); err != nil {
				return err
			}
			for k0 := uint64(0); k0 < n; k0 += t {
				if err := s.Retarget(ta, tileBase(a, i0, k0), tileSpan, core.Purge); err != nil {
					return err
				}
				if err := s.Retarget(tb, tileBase(b, k0, j0), tileSpan, core.Purge); err != nil {
					return err
				}
				mulTiles(s, t, ta.VA, tb.VA, tc.VA)
			}
		}
	}
	// Final C tile's dirty lines must scatter back before C is read.
	s.FlushVRange(tc.VA, tc.Bytes)
	return nil
}

// RefMMP computes the same product on the host with the same tiled
// summation order, so checksums agree bit-for-bit.
func RefMMP(par MMPParams) float64 {
	n, t := par.N, par.Tile
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = float64((i*7+j*3)%13) - 6
			b[i*n+j] = float64((i*5+j*11)%17) - 8
		}
	}
	for i0 := 0; i0 < n; i0 += t {
		for j0 := 0; j0 < n; j0 += t {
			for k0 := 0; k0 < n; k0 += t {
				for i := i0; i < i0+t; i++ {
					for j := j0; j < j0+t; j++ {
						sum := c[i*n+j]
						for k := k0; k < k0+t; k++ {
							sum += a[i*n+k] * b[k*n+j]
						}
						c[i*n+j] = sum
					}
				}
			}
		}
	}
	var sum float64
	for i := 0; i < n*n; i++ {
		sum += c[i] * float64(i%7+1)
	}
	return sum
}
