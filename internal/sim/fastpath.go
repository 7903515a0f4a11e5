// The access fast path: a direct-mapped cache of recently-hit L1 lines
// that lets a repeat access to the same resident line skip the block-TLB
// scan, the TLB lookup, and the set-associative L1 probe entirely.
// Unit-stride loops touch the same 32-byte L1 line 4-8 times in a row,
// so this is where most simulated accesses go. The table is sized at 4x
// the L1 line count (next power of two), large enough to remember every
// resident line with rare conflict evictions, so interleaved streams —
// the CG inner loops run three-plus at once — all stay fast.
//
// The fast path is cycle- and counter-identical to the reference path by
// construction, which rests on three invariants:
//
//  1. Translation stability. An entry caches a (virtual line -> bus
//     line) translation, valid only while the reference translate() would
//     return the same answer without observable side effects. While an
//     entry was populated, its page translation sat in the TLB (or a block
//     entry) with its referenced bit set, so a reference translate would
//     be a state-free hit. Anything that can change that — a TLB miss
//     inserting a new entry (NRU eviction, ref-bit sweep), a TLB flush,
//     block-TLB install/clear, an untimed cache reset — invalidates every
//     entry (fastInvalidateAll). Invalidation is by generation: an entry
//     is live only while its stamp equals fastVecGen, so invalidating is
//     one increment instead of a table scan (remap-heavy runs invalidate
//     thousands of times); only at the (never in practice) 2^32 wrap,
//     where stale stamps could collide, does a real scan clear the table.
//     Entries are only populated when the translation is offset-preserving
//     across the whole L1 line (never across a block-entry boundary), so
//     one cached base serves every element in the line.
//
//  2. Residency re-validation. Instead of hooking every L1 insert, evict,
//     and flush, each fast access re-checks its remembered L1 slot: the
//     slot must still be valid, hold the same physical line, and not be a
//     prefetched copy (cache.FastTouch/FastDirty). A line that was
//     evicted, refilled elsewhere, or re-entered via prefetch fails the
//     check and falls back to the reference path — which *is* the
//     reference behaviour for those cases (the prefetch-hit branch has
//     extra observable effects: L1PrefetchHits, inflight stalls, chained
//     prefetch).
//
//  3. Effect replication. A committed fast access performs exactly the
//     observable work of the reference L1-hit path, in an order that only
//     permutes independent effects: recorder callback and Loads/Stores
//     counters (done by the caller before dispatch), functional data
//     movement, the L1 LRU touch, hit counters, latency accounting and
//     clock advance, trace and observability events.
//
// Shadow (remapped) lines never enter the table: they keep the full
// reference path, including controller-buffer interactions, because the
// commit paths here read memory directly and would skip the controller's
// gather resolution.
//
// Config.DisableFastPath forces every access through the reference path;
// the differential tests compare the two end to end. Because a fall from
// the fast path is exactly the reference path, any conflict eviction or
// generation kill only changes host speed, never a simulated result.
package sim

import "impulse/internal/addr"

// fastPageWays is the page-translation memo capacity (see the memo's
// field comment in machine.go).
const fastPageWays = 4

// fastInvalid is the vline sentinel for an empty fast-path entry (no
// real virtual line is all-ones).
const fastInvalid = ^uint64(0)

// fastEntry caches one line-hit: the virtual line identity, its bus-line
// base, where in the L1 the line sat (slot plus physical-line tag for
// re-validation), and the generation stamp it is live under.
type fastEntry struct {
	vline uint64 // line-aligned virtual address (identity; fastInvalid = empty)
	pbase uint64 // line-aligned bus address vline translates to
	la    uint64 // L1 physical line number of pbase (slot re-validation tag)
	slot  int32  // global L1 slot index the line occupied when cached
	gen   uint32 // liveness stamp; dead unless equal to fastVecGen
}

// fastInvalidateAll kills every fast-path entry and the page-translation
// memo. Called whenever translation state may have changed (see
// invariant 1 above).
func (m *Machine) fastInvalidateAll() {
	m.fastVecGen++
	if m.fastVecGen == 0 {
		for i := range m.fastVec {
			m.fastVec[i].vline = fastInvalid
		}
	}
	for i := range m.fastPages {
		m.fastPages[i] = fastInvalid
	}
}

// fastPopulate remembers a line-hit for the fast path. slot is the L1
// slot the line occupies (-1 = unknown, skip). Population is the only
// place the entry invariants are established; the per-access checks in
// fastLoad/fastStore only re-validate residency.
func (m *Machine) fastPopulate(v addr.VAddr, p addr.PAddr, slot int) {
	if !m.fastOn || slot < 0 {
		return
	}
	off := uint64(v) & m.l1LineMask
	if off != uint64(p)&m.l1LineMask {
		return // translation does not preserve line offsets: one base cannot serve the line
	}
	if m.MC.IsShadow(p) {
		// Shadow lines keep the full reference path: a committed fast
		// access reads memory directly, skipping gather resolution.
		return
	}
	vline := uint64(v) - off
	vhi := vline + m.cfg.L1.LineBytes
	for i := range m.blockTLB {
		b := &m.blockTLB[i]
		if vline < b.vhi && vhi > b.vlo { // line overlaps this block entry
			if vline < b.vlo || vhi > b.vhi {
				return // straddles the entry boundary: translation not linear across the line
			}
			break // fully inside the first matching entry: linear, and first-match stable
		}
	}
	m.fastVec[(vline>>m.fastVecShift)&m.fastVecMask] = fastEntry{
		vline: vline,
		pbase: uint64(p) - off,
		la:    m.L1.LineAddr(uint64(p)),
		slot:  int32(slot),
		gen:   m.fastVecGen,
	}
}

// fastLoad attempts the load fast path. On a committed hit it performs
// the complete observable effect of the reference L1-hit path and
// reports (value, true); otherwise it reports false having touched
// nothing, and the caller runs the reference path.
func (m *Machine) fastLoad(v addr.VAddr, size uint64) (uint64, bool) {
	if !m.fastOn {
		return 0, false
	}
	vline := uint64(v) &^ m.l1LineMask
	e := &m.fastVec[(vline>>m.fastVecShift)&m.fastVecMask]
	if e.vline != vline || e.gen != m.fastVecGen {
		return 0, false
	}
	if !m.L1.FastTouch(int(e.slot), e.la) {
		e.vline = fastInvalid
		return 0, false
	}
	start := m.clock
	p := addr.PAddr(e.pbase | (uint64(v) & m.l1LineMask))
	var value uint64
	if m.functional {
		// Populate rejects shadow lines, so this is readValue minus
		// the shadow dispatch.
		if size == 8 {
			value = m.Mem.Load64(p)
		} else {
			value = uint64(m.Mem.Load32(p))
		}
	}
	m.St.L1LoadHits++
	m.finishLoad(start, start+m.cfg.L1.HitCycles)
	if m.tracer != nil {
		m.traceLoad(v, p, size, start, LevelL1)
	}
	if m.obs != nil {
		m.obsLoad(start, LevelL1)
	}
	return value, true
}

// fastStore attempts the store fast path (the L1 MarkDirty-hit branch of
// the reference store). Reports whether it committed.
func (m *Machine) fastStore(v addr.VAddr, size, val uint64) bool {
	if !m.fastOn {
		return false
	}
	vline := uint64(v) &^ m.l1LineMask
	e := &m.fastVec[(vline>>m.fastVecShift)&m.fastVecMask]
	if e.vline != vline || e.gen != m.fastVecGen {
		return false
	}
	if !m.L1.FastDirty(int(e.slot), e.la) {
		e.vline = fastInvalid
		return false
	}
	start := m.clock
	p := addr.PAddr(e.pbase | (uint64(v) & m.l1LineMask))
	if m.functional {
		// Non-shadow by the populate guard: writeValue minus dispatch.
		if size == 8 {
			m.Mem.Store64(p, val)
		} else {
			m.Mem.Store32(p, uint32(val))
		}
	}
	m.St.L1StoreHits++
	m.St.Instructions++
	done := m.clock + 1
	if lim := m.cfg.StoreBacklogCycles; lim > 0 {
		if bu := m.Bus.BusyUntil(); bu > done+lim {
			done = bu - lim
		}
	}
	m.St.StoreCycles += done - start
	m.clock = done
	if m.tracer != nil {
		// Shadow is false by the populate guard.
		m.trace(TraceEvent{Cycle: start, Kind: TraceStore, VAddr: v, PAddr: p, Size: size})
	}
	return true
}
