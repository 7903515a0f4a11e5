package sim

import (
	"encoding/binary"
	"math"

	"impulse/internal/addr"
)

// Loop kernels: the workloads' hottest inner loops as single calls. Each
// kernel is defined as exactly the per-access loop it replaces — the
// same loads in the same order, the same ticks, the same floating-point
// sum left to right — so adopting one never changes a simulated result
// or a computed value.
//
// What a kernel saves is host work. With the fast table on, no tracer, no
// observability hub and a direct-mapped L1 (batchable), an access the
// fast table commits from a host page reads that page through state the
// kernel hoisted into locals at entry, and is only counted: no call, no
// counter in memory. The counts, the instructions of the ticks and the
// clock they imply are committed in bulk (commitBatch) before every
// reference-path call and at return (fastpath.go, invariant 3). Any
// other access is a miss, and goes straight to the reference tail as
// load would after a fast-table miss. Without batchable, every access
// goes through the per-access API: that covers Config.DisableFastPath,
// an attached tracer or hub, and an L1 with more than one way.

// batchable reports whether a loop kernel may serve fast-table hits from
// its own locals (see above).
func (m *Machine) batchable() bool {
	return m.fastOn && m.tracer == nil && m.obs == nil && m.fastWays == 1
}

// kernelTable is the fast table as a loop kernel reads it: the fields of
// the machine a probe needs, hoisted into locals at the kernel's entry.
// The probes must inline into the kernels' loops, and line (mask + 1,
// kept apart) is what keeps them inside the compiler's inlining budget.
type kernelTable struct {
	vec  []fastEntry
	mask uint64 // L1 line bytes - 1
	line uint64 // L1 line bytes
	sets uint64 // L1 sets - 1
	sh   uint8  // log2 of the L1 line size
}

func (m *Machine) kernelTable() kernelTable {
	return kernelTable{vec: m.fastVec, mask: m.l1LineMask, line: m.l1LineMask + 1, sets: m.fastSetMask, sh: m.fastVecShift}
}

// load64 returns the 8 bytes at virtual address va when the fast table
// commits the load under generation gen and the bytes lie in the entry's
// host page; otherwise ok is false and nothing was touched.
func (t *kernelTable) load64(va uint64, gen uint32) (v uint64, ok bool) {
	off := va & t.mask
	e := &t.vec[(va>>t.sh)&t.sets]
	if off+8 > t.line || e.page == nil || !e.commits(va-off, gen, true) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(e.page[e.dbase&addr.PageMask+off:]), true
}

// load32 is load64 for 4 bytes.
func (t *kernelTable) load32(va uint64, gen uint32) (v uint64, ok bool) {
	off := va & t.mask
	e := &t.vec[(va>>t.sh)&t.sets]
	if off+4 > t.line || e.page == nil || !e.commits(va-off, gen, true) {
		return 0, false
	}
	return uint64(binary.LittleEndian.Uint32(e.page[e.dbase&addr.PageMask+off:])), true
}

// commitBatch commits what a kernel counted since its last commit: hits
// L1 load hits at the precomputed latency (fastLoad's accounting, n times
// over), and iters loop iterations of ticks instructions each (Tick's).
// The clock stays at the last commit while the kernel counts, so it
// advances here by what the hits and ticks charge.
func (m *Machine) commitBatch(hits, iters, ticks uint64) {
	st := m.St
	lat := m.l1HitLat
	st.Loads += hits
	st.L1LoadHits += hits
	st.LoadCycles += hits * lat
	h := &st.LoadLatency
	h.Buckets[m.l1HitBucket] += hits
	h.Count += hits
	h.Total += hits * lat
	if hits > 0 && lat > h.Max {
		h.Max = lat
	}
	st.Instructions += hits + iters*ticks
	m.clock += hits*lat + iters*m.tickCycles(ticks)
}

// kernelLoad is a loop kernel's miss: it commits the kernel's counts,
// then counts the load and runs the reference tail, as load does after a
// fast-table miss. The kernel resumes its counts from zero under
// m.fastVecGen, which a TLB miss on the way bumps.
func (m *Machine) kernelLoad(v, size, hits, iters, ticks uint64) uint64 {
	m.commitBatch(hits, iters, ticks)
	m.St.Loads++
	return m.loadTail(addr.VAddr(v), size)
}

// DotF64 returns acc plus the dot product of n float64 pairs, as the loop
//
//	for k := uint64(0); k < n; k++ {
//		x := m.LoadF64(a + addr.VAddr(k*aStride))
//		y := m.LoadF64(b + addr.VAddr(k*bStride))
//		acc += x * y
//		m.Tick(ticks)
//	}
//
// computes and charges it.
func (m *Machine) DotF64(acc float64, a addr.VAddr, aStride uint64, b addr.VAddr, bStride uint64, n, ticks uint64) float64 {
	if !m.batchable() {
		for k := uint64(0); k < n; k++ {
			x := m.LoadF64(a + addr.VAddr(k*aStride))
			y := m.LoadF64(b + addr.VAddr(k*bStride))
			acc += x * y
			m.Tick(ticks)
		}
		return acc
	}
	t := m.kernelTable()
	gen := m.fastVecGen
	var hits, iters uint64
	for k := uint64(0); k < n; k++ {
		va := uint64(a) + k*aStride
		x, ok := t.load64(va, gen)
		if ok {
			hits++
		} else {
			x = m.kernelLoad(va, 8, hits, iters, ticks)
			hits, iters, gen = 0, 0, m.fastVecGen
		}
		vb := uint64(b) + k*bStride
		y, ok := t.load64(vb, gen)
		if ok {
			hits++
		} else {
			y = m.kernelLoad(vb, 8, hits, iters, ticks)
			hits, iters, gen = 0, 0, m.fastVecGen
		}
		acc += math.Float64frombits(x) * math.Float64frombits(y)
		iters++
	}
	m.commitBatch(hits, iters, ticks)
	return acc
}

// IndexedDotF64 returns acc plus the sparse row product over the
// nonzeros [lo, hi) of a CSR matrix, as the loop
//
//	for j := lo; j < hi; j++ {
//		col := m.Load32(idx + addr.VAddr(4*j))
//		v := m.LoadF64(vals + addr.VAddr(8*j))
//		xv := m.LoadF64(x + addr.VAddr(8*uint64(col)))
//		acc += v * xv
//		m.Tick(ticks)
//	}
//
// computes and charges it: idx holds the uint32 column indices, vals
// the float64 values, and x the dense multiplicand.
func (m *Machine) IndexedDotF64(acc float64, idx, vals, x addr.VAddr, lo, hi, ticks uint64) float64 {
	if !m.batchable() {
		for j := lo; j < hi; j++ {
			col := m.Load32(idx + addr.VAddr(4*j))
			v := m.LoadF64(vals + addr.VAddr(8*j))
			xv := m.LoadF64(x + addr.VAddr(8*uint64(col)))
			acc += v * xv
			m.Tick(ticks)
		}
		return acc
	}
	t := m.kernelTable()
	gen := m.fastVecGen
	var hits, iters uint64
	for j := lo; j < hi; j++ {
		vi := uint64(idx) + 4*j
		col, ok := t.load32(vi, gen)
		if ok {
			hits++
		} else {
			col = m.kernelLoad(vi, 4, hits, iters, ticks)
			hits, iters, gen = 0, 0, m.fastVecGen
		}
		vv := uint64(vals) + 8*j
		v, ok := t.load64(vv, gen)
		if ok {
			hits++
		} else {
			v = m.kernelLoad(vv, 8, hits, iters, ticks)
			hits, iters, gen = 0, 0, m.fastVecGen
		}
		vx := uint64(x) + 8*col
		xv, ok := t.load64(vx, gen)
		if ok {
			hits++
		} else {
			xv = m.kernelLoad(vx, 8, hits, iters, ticks)
			hits, iters, gen = 0, 0, m.fastVecGen
		}
		acc += math.Float64frombits(v) * math.Float64frombits(xv)
		iters++
	}
	m.commitBatch(hits, iters, ticks)
	return acc
}
