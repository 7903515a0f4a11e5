// The access fast path: a table with exactly one entry per L1 slot,
// indexed the way the L1 is indexed, that lets a repeat access to a
// resident line skip the block-TLB scan, the TLB lookup, the L1 probe and
// the memory model's page lookup. Unit-stride loops touch the same
// 32-byte L1 line 4-8 times in a row, so this is where most simulated
// accesses go. A committed hit reads one entry and calls nothing.
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
//     an entry of the line table or of the page memo is live only while
//     its stamp equals fastVecGen, so invalidating is one increment
//     instead of a scan (remap-heavy runs invalidate thousands of times,
//     and every TLB miss invalidates); only at the (never in practice)
//     2^32 wrap, where stale stamps could collide, does a real scan clear
//     both. Entries are only populated when the
//     translation is offset-preserving across the whole L1 line (never
//     across a block-entry boundary), so one cached base serves every
//     element in the line.
//
//  2. Slot ownership. Entry i only ever describes the line in L1 slot i:
//     the table is indexed by the virtual line's set, as the virtually
//     indexed L1 is, and an entry is populated only from the slot a
//     reference hit, store hit or fill reported, while that slot holds
//     the entry's line as a demanded (not prefetched) copy. Every change
//     of a slot's line kills the slot's entry: a demand fill (fillL1), a
//     prefetch fill (maybeL1Prefetch), a line flush or purge
//     (cacheMaint), and FlushAll, through a generation bump, in
//     ResetCachesUntimed and FlushAllCaches. A live entry therefore
//     stands for a reference L1 hit that is not a prefetch hit — whose
//     extra observable effects (L1PrefetchHits, in-flight stalls, the
//     chained prefetch) the shortcut must not replicate — without reading
//     the L1 record. A load hit on a direct-mapped L1 reads nothing of it,
//     because that L1's LRU state is never read; a store sets the slot's
//     dirty bit. With more than one way the table probes the entries of
//     the set and applies Lookup's LRU update to the slot it hits.
//
//  3. Effect replication. A committed fast access performs exactly the
//     observable work of the reference L1-hit path, in an order that only
//     permutes independent effects: Loads/Stores counters (done by the
//     caller before dispatch), functional data movement, the L1 LRU
//     touch or dirty bit, hit counters, latency accounting and clock
//     advance, trace and observability events. A load's accounting is
//     applied inline from a latency and histogram bucket New precomputes,
//     and its data moves through the host page the entry keeps, so the
//     hit makes no call. The loop kernels (kernels.go) go one step
//     further: a hit only counts itself, and the counts and the clock are
//     committed in bulk (commitBatch) before every reference-path call
//     and at return. Every effect of a hit is a sum (Loads, L1LoadHits,
//     LoadCycles, the latency bucket, Count, Total, Instructions and the
//     clock) or a maximum over its one constant latency (Max), so n hits
//     committed at once equal n committed one by one, and the reference
//     path never runs on counts that lag behind it.
//
// The entry's host page is the membuf page that backs the line's data.
// It is nil when the line's bytes straddle a page boundary, which a
// misaligned shadow base can cause; such a line, and an access that runs
// past the end of its line, moves its data through Mem as readValue and
// writeValue do.
//
// Shadow (remapped) lines enter the table only when the controller maps
// the whole L1 line, through a Direct or Strided descriptor, onto one
// physically contiguous run (mc.Controller.LineBase). The reference path
// asks once per shadow access (lineData), and that one answer serves both
// the access's data and the entry. The entry keeps the run's base beside
// the bus-line base: a committed access moves data at base + line offset,
// exactly where the controller's resolution puts every byte of the line,
// and reports the shadow bus address in its trace event. The base need not
// be line-aligned: a stride or target that is not a multiple of the line
// puts objects anywhere in physical memory. An access that spills past the
// end of a shadow line falls back, since the next line resolves on its
// own. Gather lines never enter: their resolution reads the indirection
// vector from simulated memory, and a CPU store can rewrite that vector
// without any controller operation. Controller-buffer interactions happen
// only on fills, which run the reference path in every case.
//
// Config.DisableFastPath forces every access through the reference
// path; the differential tests compare the two end to end. Because a
// fall from the fast path is exactly the reference path, a killed entry
// only changes host speed, never a simulated result.
package sim

import (
	"encoding/binary"

	"impulse/internal/addr"
)

// fastPageSlots is the page-translation memo's size: a direct-mapped
// memo indexed by the low bits of the virtual page number (see the memo's
// field comment in machine.go).
const fastPageSlots = 64

// fastInvalid is the vline sentinel for an empty fast-path entry (no
// real virtual line is all-ones) and the page sentinel for an empty memo
// entry.
const fastInvalid = ^uint64(0)

// fastPage is one entry of the page-translation memo: a virtual page,
// the frame the TLB translated it to, and the generation it is live
// under.
type fastPage struct {
	page, frame uint64
	gen         uint32
}

// fastEntry describes the line in one L1 slot: its virtual line, the bus
// line that translates to, the physical base holding the line's data and
// the host page behind that base, and the generation it is live under.
type fastEntry struct {
	vline uint64               // line-aligned virtual address (identity; fastInvalid = empty)
	pbase uint64               // line-aligned bus address vline translates to (the L1 tag)
	dbase uint64               // physical address of the line's first byte; != pbase iff shadow
	page  *[addr.PageSize]byte // host page holding the line's bytes; nil if they straddle pages
	gen   uint32               // liveness stamp; dead unless equal to fastVecGen
}

// commits reports whether e commits an access to the line vline under
// generation gen that does (inLine) or does not lie inside the line: the
// entry must be live for vline, and an access that spills past its line
// commits only on an ordinary line, because the next shadow line
// resolves on its own. fastLoad, fastStore and the loop kernels all
// decide by it.
func (e *fastEntry) commits(vline uint64, gen uint32, inLine bool) bool {
	return e.vline == vline && e.gen == gen && (inLine || e.dbase == e.pbase)
}

// fastInvalidateAll kills every fast-path entry and the page-translation
// memo. Called whenever translation or shadow resolution may have
// changed (see invariant 1 above) and when the whole L1 is emptied; the
// controller calls it through its remap hook.
func (m *Machine) fastInvalidateAll() {
	m.fastInvalidations++
	m.fastVecGen++
	if m.fastVecGen == 0 {
		for i := range m.fastVec {
			m.fastVec[i].vline = fastInvalid
		}
		for i := range m.fastPages {
			m.fastPages[i].page = fastInvalid
		}
	}
}

// fastKill kills the entry of an L1 slot whose line changed (invariant 2).
// slot < 0 means no slot changed.
func (m *Machine) fastKill(slot int) {
	if m.fastOn && slot >= 0 {
		m.fastVec[slot].vline = fastInvalid
	}
}

// fastPopulate makes slot's entry describe the line containing v, which
// translated to p and which slot holds as a demanded copy; dbase and
// whole are the line's data base as lineData resolved it. Population is
// the only place the entry invariants are established. A line the table
// cannot serve leaves the entry as it is: the slot's fill killed it, and
// on a hit the slot's line did not change.
func (m *Machine) fastPopulate(v addr.VAddr, p addr.PAddr, dbase uint64, whole bool, slot int) {
	if !m.fastOn || !whole {
		return // a shadow line no one physical run holds (see lineData)
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
	var page *[addr.PageSize]byte
	if dbase&addr.PageMask+m.cfg.L1.LineBytes <= addr.PageSize {
		page = m.Mem.Page(addr.PAddr(dbase))
	}
	// Field by field, not a composite literal (see cache.Fill).
	e := &m.fastVec[slot]
	e.vline = vline
	e.pbase = pbase
	e.dbase = dbase
	e.page = page
	e.gen = m.fastVecGen
}

// fastWay returns the slot of set's live entry for vline on an L1 with
// more than one way, or -1.
func (m *Machine) fastWay(vline, set uint64) int {
	base := set * m.fastWays
	for i := base; i < base+m.fastWays; i++ {
		if e := &m.fastVec[i]; e.vline == vline && e.gen == m.fastVecGen {
			return int(i)
		}
	}
	return -1
}

// fastLoad attempts the load fast path. On a committed hit it performs
// the complete observable effect of the reference L1-hit path and
// reports (value, true); otherwise it reports false having touched
// nothing, and the caller runs the reference path.
func (m *Machine) fastLoad(v addr.VAddr, size uint64) (uint64, bool) {
	vline := uint64(v) &^ m.l1LineMask
	slot := (vline >> m.fastVecShift) & m.fastSetMask
	if m.fastWays > 1 {
		i := m.fastWay(vline, slot)
		if i < 0 {
			return 0, false
		}
		slot = uint64(i)
	}
	e := &m.fastVec[slot]
	off := uint64(v) & m.l1LineMask
	inLine := off+size <= m.l1LineMask+1
	if !e.commits(vline, m.fastVecGen, inLine) {
		return 0, false
	}
	if m.fastWays > 1 {
		m.L1.Touch(int(slot))
	}
	// readValue minus the shadow dispatch: the controller resolves this
	// line to dbase onward. A shadow line's dbase need not be
	// line-aligned, so the offset is added, not or-ed in.
	var value uint64
	if inLine && e.page != nil {
		b := e.page[e.dbase&addr.PageMask+off:]
		if size == 8 {
			value = binary.LittleEndian.Uint64(b)
		} else {
			value = uint64(binary.LittleEndian.Uint32(b))
		}
	} else if d := addr.PAddr(e.dbase + off); size == 8 {
		value = m.Mem.Load64(d)
	} else {
		value = uint64(m.Mem.Load32(d))
	}
	// finishLoad and LoadLatency.Observe for the precomputed L1 hit
	// latency.
	st := m.St
	start := m.clock
	lat := m.l1HitLat
	st.L1LoadHits++
	st.LoadCycles += lat
	h := &st.LoadLatency
	h.Buckets[m.l1HitBucket]++
	h.Count++
	h.Total += lat
	if lat > h.Max {
		h.Max = lat
	}
	st.Instructions++
	m.clock = start + lat
	if m.tracer != nil {
		m.traceLoad(v, addr.PAddr(e.pbase|off), size, start, LevelL1)
	}
	if m.obs != nil {
		m.obsLoad(start, LevelL1)
		m.countFastHit(e.dbase != e.pbase)
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
	vline := uint64(v) &^ m.l1LineMask
	slot := (vline >> m.fastVecShift) & m.fastSetMask
	if m.fastWays > 1 {
		i := m.fastWay(vline, slot)
		if i < 0 {
			return false
		}
		slot = uint64(i)
	}
	e := &m.fastVec[slot]
	off := uint64(v) & m.l1LineMask
	inLine := off+size <= m.l1LineMask+1
	if !e.commits(vline, m.fastVecGen, inLine) {
		return false
	}
	if m.fastWays > 1 {
		m.L1.Touch(int(slot))
	}
	m.L1.SetDirty(int(slot))
	// writeValue minus the shadow dispatch (see fastLoad).
	if inLine && e.page != nil {
		b := e.page[e.dbase&addr.PageMask+off:]
		if size == 8 {
			binary.LittleEndian.PutUint64(b, val)
		} else {
			binary.LittleEndian.PutUint32(b, uint32(val))
		}
	} else if d := addr.PAddr(e.dbase + off); size == 8 {
		m.Mem.Store64(d, val)
	} else {
		m.Mem.Store32(d, uint32(val))
	}
	start := m.clock
	m.St.L1StoreHits++
	m.St.Instructions++
	done := start + 1
	if lim := m.cfg.StoreBacklogCycles; lim > 0 {
		if bu := m.Bus.BusyUntil(); bu > done+lim {
			done = bu - lim
		}
	}
	m.St.StoreCycles += done - start
	m.clock = done
	if m.tracer != nil {
		m.trace(TraceEvent{Cycle: start, Kind: TraceStore, VAddr: v, PAddr: addr.PAddr(e.pbase | off),
			Size: size, Shadow: e.dbase != e.pbase})
	}
	if m.obs != nil {
		m.countFastHit(e.dbase != e.pbase)
	}
	return true
}
