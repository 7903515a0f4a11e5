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
// counter in memory. The kernel keeps the clock in a local, writes it
// back before every call that may read it, and commits the counts and
// the instructions of the ticks once, at return (commitBatch;
// fastpath.go, invariant 3). Any other access is a miss (kernelLoad):
// one that misses L1 and hits L2 is served in one call-free step, and
// the rest go to the reference tail as load would after a fast-table
// miss. Without batchable, every access goes through the per-access
// API: that covers Config.DisableFastPath, an attached tracer or hub,
// and an L1 with more than one way.

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

// commitBatch commits what a kernel counted from entry to return: hits
// L1 load hits at the precomputed latency (fastLoad's accounting, n
// times over), and iters loop iterations of ticks instructions each
// (Tick's instructions). The kernel has kept the clock itself.
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
}

// kernelLoad is a loop kernel's load of size bytes at va that its fast
// table did not commit, with the clock brought up to date. It counts the
// load and, when the L1 misses and the L2 hits on a line the page memo
// maps as ordinary memory, serves it in one step that calls nothing:
// loadTail's L2-hit branch, with the L1 prefetcher's next line folded in
// when it lies in the same L2 line. Every other case continues on the
// reference path: a failed precondition before any probe, in loadTail;
// an L1 hit, after the step's probe, which is Lookup's own, in loadHit;
// an L2 miss, handed the fill slot the step's probe reported, in
// loadMemory. So nothing the reference path would not do is done before
// the fall, and no cache is searched twice. The step needs a batchable
// kernel (so a direct-mapped L1 and no tracer or hub), no block entry
// (the memo then holds every translation translate would make from the
// TLB), an access inside its line, and the paper's 2-way L2, whose probe
// inlines.
func (m *Machine) kernelLoad(va, size uint64) uint64 {
	m.St.Loads++
	page := va >> addr.PageShift
	memo := &m.fastPages[page&(fastPageSlots-1)]
	off := va & m.l1LineMask
	if memo.page != page || memo.gen != m.fastVecGen || memo.host == nil ||
		off+size > m.l1LineMask+1 || len(m.blockTLB) != 0 || m.cfg.L2.Ways != 2 {
		return m.loadTail(addr.VAddr(va), size)
	}
	// translate's answer from the memo, lineData's for ordinary memory
	// (the line's own base, whole) and readValue's through the host page.
	p := memo.frame<<addr.PageShift | va&addr.PageMask
	pline := p - off
	var value uint64
	if b := memo.host[va&addr.PageMask:]; size == 8 {
		value = binary.LittleEndian.Uint64(b)
	} else {
		value = uint64(binary.LittleEndian.Uint32(b))
	}
	start := m.clock
	slot := int((va >> m.fastVecShift) & m.fastSetMask)
	r := m.L1.LookupSlot(slot, p)
	if r.Hit {
		m.loadHit(addr.VAddr(va), addr.PAddr(p), size, pline, true, start, r)
		return value
	}
	s2, hit := m.L2.Probe2(p)
	if !hit {
		m.loadMemory(addr.VAddr(va), addr.PAddr(p), size, pline, true, start, slot, s2)
		return value
	}

	// loadTail's L2 hit. Without a hub the port has no observer, and
	// L2 lines are never prefetched, so Touch is Lookup's hit.
	st := m.St
	m.L2.Touch(s2)
	_, done := m.l2port.Reserve(start+m.cfg.L1.HitCycles, m.cfg.L2.HitCycles)
	st.L2LoadHits++
	ev := m.L1.Fill(slot, p, false, false)
	m.setEntry(slot, va-off, pline, pline, memo.host)
	if ev.Dirty {
		m.l1Victim(ev, done)
	}
	lat := max(done, start+1) - start // finishLoad's
	st.LoadCycles += lat
	st.LoadLatency.Observe(lat)
	st.Instructions++
	m.clock = start + lat
	if !m.cfg.L1Prefetch {
		return value
	}
	// maybeL1Prefetch, folded when the next line shares the demand's L2
	// line and page (the smaller of the two masks): the frame is the
	// demand's, the line is ordinary memory (CoversLine), and its L2
	// Lookup hits in s2, which nothing since the demand's probe has moved.
	nv := va - off + m.l1LineMask + 1
	if (nv^va)&^(m.l2LineMask&addr.PageMask) != 0 {
		m.maybeL1Prefetch(addr.VAddr(va), addr.PAddr(p), done)
		return value
	}
	np := pline + m.l1LineMask + 1
	ns := int((nv >> m.fastVecShift) & m.fastSetMask)
	if m.L1.Holds(ns, np) {
		return value
	}
	m.L2.Touch(s2)
	_, arrive := m.l2port.Reserve(done, m.cfg.L2.HitCycles)
	st.L1Prefetches++
	ev = m.L1.Fill(ns, np, false, true)
	m.fastKill(ns)
	if ev.Dirty {
		m.l1Victim(ev, arrive)
	}
	m.l1Arrive[ns] = arrive
	return value
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
	gen, now := m.fastVecGen, m.clock
	lat, tc := m.l1HitLat, m.tickCycles(ticks)
	var hits uint64
	for k := uint64(0); k < n; k++ {
		va := uint64(a) + k*aStride
		x, ok := t.load64(va, gen)
		if ok {
			hits++
			now += lat
		} else {
			m.clock = now
			x = m.kernelLoad(va, 8)
			gen, now = m.fastVecGen, m.clock
		}
		vb := uint64(b) + k*bStride
		y, ok := t.load64(vb, gen)
		if ok {
			hits++
			now += lat
		} else {
			m.clock = now
			y = m.kernelLoad(vb, 8)
			gen, now = m.fastVecGen, m.clock
		}
		acc += math.Float64frombits(x) * math.Float64frombits(y)
		now += tc
	}
	m.clock = now
	m.commitBatch(hits, n, ticks)
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
	gen, now := m.fastVecGen, m.clock
	lat, tc := m.l1HitLat, m.tickCycles(ticks)
	var hits uint64
	for j := lo; j < hi; j++ {
		vi := uint64(idx) + 4*j
		col, ok := t.load32(vi, gen)
		if ok {
			hits++
			now += lat
		} else {
			m.clock = now
			col = m.kernelLoad(vi, 4)
			gen, now = m.fastVecGen, m.clock
		}
		vv := uint64(vals) + 8*j
		v, ok := t.load64(vv, gen)
		if ok {
			hits++
			now += lat
		} else {
			m.clock = now
			v = m.kernelLoad(vv, 8)
			gen, now = m.fastVecGen, m.clock
		}
		vx := uint64(x) + 8*col
		xv, ok := t.load64(vx, gen)
		if ok {
			hits++
			now += lat
		} else {
			m.clock = now
			xv = m.kernelLoad(vx, 8)
			gen, now = m.fastVecGen, m.clock
		}
		acc += math.Float64frombits(v) * math.Float64frombits(xv)
		now += tc
	}
	m.clock = now
	m.commitBatch(hits, max(hi, lo)-lo, ticks)
	return acc
}
