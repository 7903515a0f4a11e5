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
//     line) translation, and for a shadow line also the controller's
//     (bus line -> physical data) resolution, valid only while the
//     reference path would give the same answers without observable side
//     effects. While an entry was populated, its page translation sat in
//     the TLB (or a block entry) with its referenced bit set, so a
//     reference translate would be a state-free hit. Anything that can
//     change that — a TLB miss inserting a new entry (NRU eviction,
//     ref-bit sweep), a TLB flush, block-TLB install/clear, an untimed
//     cache reset, or a controller remap (SetDescriptor, ClearDescriptor,
//     MapPV, reported through the controller's remap hook, so no caller
//     can skip it) — invalidates every entry (fastInvalidateAll).
//     Controller TLB and buffer invalidations change timing only, not
//     resolution, and do not invalidate. Invalidation is by generation:
//     an entry is live only while its stamp equals fastVecGen, so
//     invalidating is one increment instead of a table scan (remap-heavy
//     runs invalidate thousands of times); only at the (never in
//     practice) 2^32 wrap, where stale stamps could collide, does a real
//     scan clear the table. Entries are only populated when the
//     translation is offset-preserving across the whole L1 line (never
//     across a block-entry boundary), so one cached base serves every
//     element in the line.
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
//     permutes independent effects: Loads/Stores counters (done by the
//     caller before dispatch), functional data movement, the L1 LRU
//     touch, hit counters, latency accounting and clock advance, trace
//     and observability events.
//
// Shadow (remapped) lines enter the table only when the controller maps
// the whole L1 line, through a Direct or Strided descriptor, onto one
// physically contiguous run (mc.Controller.LineBase). The entry then
// keeps that run's base beside the bus-line base: a committed access moves
// data at base + line offset, exactly where the controller's resolution
// puts every byte of the line, and reports the shadow bus address in its
// trace event. The base need not be line-aligned: a stride or target that
// is not a multiple of the line puts objects anywhere in physical memory.
// An access that spills past the end of a shadow line falls back, since
// the next line resolves on its own. Gather lines never enter: their
// resolution reads the indirection vector from simulated memory, and a
// CPU store can rewrite that vector without any controller operation.
// Controller-buffer interactions happen only on fills, which run the
// reference path in every case.
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
// base, the physical base holding the line's data, where in the L1 the
// line sat, and the generation stamp it is live under. The L1 tag used
// for slot re-validation is pbase's line number, computed rather than
// stored so the entry stays 32 bytes.
type fastEntry struct {
	vline uint64 // line-aligned virtual address (identity; fastInvalid = empty)
	pbase uint64 // line-aligned bus address vline translates to (the L1 tag)
	dbase uint64 // physical address of the line's first byte; != pbase iff shadow
	slot  int32  // global L1 slot index the line occupied when cached
	gen   uint32 // liveness stamp; dead unless equal to fastVecGen
}

// fastInvalidateAll kills every fast-path entry and the page-translation
// memo. Called whenever translation or shadow resolution may have
// changed (see invariant 1 above); the controller calls it through its
// remap hook.
func (m *Machine) fastInvalidateAll() {
	m.fastInvalidations++
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
	pbase := uint64(p) - off
	dbase := pbase
	if m.MC.IsShadow(p) {
		// Only a line the controller maps onto one contiguous physical
		// run (Direct or Strided, never Gather) can be served from one
		// cached data base.
		d, ok := m.MC.LineBase(addr.PAddr(pbase), m.cfg.L1.LineBytes)
		if !ok {
			return
		}
		dbase = uint64(d)
	}
	m.fastVec[(vline>>m.fastVecShift)&m.fastVecMask] = fastEntry{
		vline: vline,
		pbase: pbase,
		dbase: dbase,
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
	off := uint64(v) & m.l1LineMask
	shadow := e.dbase != e.pbase
	if shadow && off+size > m.cfg.L1.LineBytes {
		return 0, false // spills into the next shadow line, which resolves on its own
	}
	if !m.L1.FastTouch(int(e.slot), e.pbase>>m.fastVecShift) {
		e.vline = fastInvalid
		return 0, false
	}
	start := m.clock
	// readValue minus the shadow dispatch: the controller resolves this
	// line to dbase onward. A shadow line's dbase need not be
	// line-aligned, so the offset is added, not or-ed in.
	var value uint64
	d := addr.PAddr(e.dbase + off)
	if size == 8 {
		value = m.Mem.Load64(d)
	} else {
		value = uint64(m.Mem.Load32(d))
	}
	m.St.L1LoadHits++
	m.finishLoad(start, start+m.cfg.L1.HitCycles)
	if m.tracer != nil {
		m.traceLoad(v, addr.PAddr(e.pbase|off), size, start, LevelL1)
	}
	if m.obs != nil {
		m.obsLoad(start, LevelL1)
		m.countFastHit(shadow)
	}
	return value, true
}

// countFastHit counts a committed fast access in the sim.fast.* host
// counters. Callers count only with a hub attached: the counters are
// read only through the hub's registry, and an unobserved run then pays
// nothing for them on its hottest path.
func (m *Machine) countFastHit(shadow bool) {
	m.fastHits++
	if shadow {
		m.fastShadowHits++
	}
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
	off := uint64(v) & m.l1LineMask
	shadow := e.dbase != e.pbase
	if shadow && off+size > m.cfg.L1.LineBytes {
		return false // spills into the next shadow line (see fastLoad)
	}
	if !m.L1.FastDirty(int(e.slot), e.pbase>>m.fastVecShift) {
		e.vline = fastInvalid
		return false
	}
	start := m.clock
	// writeValue minus the shadow dispatch (see fastLoad).
	d := addr.PAddr(e.dbase + off)
	if size == 8 {
		m.Mem.Store64(d, val)
	} else {
		m.Mem.Store32(d, uint32(val))
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
		m.trace(TraceEvent{Cycle: start, Kind: TraceStore, VAddr: v, PAddr: addr.PAddr(e.pbase | off),
			Size: size, Shadow: shadow})
	}
	if m.obs != nil {
		m.countFastHit(shadow)
	}
	return true
}
