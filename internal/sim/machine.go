package sim

import (
	"fmt"
	"math"
	"math/bits"

	"impulse/internal/addr"
	"impulse/internal/bus"
	"impulse/internal/cache"
	"impulse/internal/dram"
	"impulse/internal/kernel"
	"impulse/internal/mc"
	"impulse/internal/membuf"
	"impulse/internal/obs"
	"impulse/internal/stats"
	"impulse/internal/timeline"
	"impulse/internal/tlb"
)

// Machine is the assembled system.
type Machine struct {
	cfg Config

	clock timeline.Time
	St    *stats.MemStats

	Mem  *membuf.Memory
	K    *kernel.Kernel
	MC   *mc.Controller
	L1   *cache.Cache
	L2   *cache.Cache
	Bus  *bus.Bus
	DRAM *dram.DRAM
	TLB  *tlb.TLB

	l2port timeline.Resource

	// l1Arrive holds, per L1 slot (set-major, like the L1's lines), the
	// time the data of the line an L1 prefetch last put in that slot
	// arrives. A demand hit on a prefetched line stalls until then (a
	// "partial hit"). Only the first demand of a line a prefetch filled
	// reads it (LookupResult.WasPrefetched), and any later change of the
	// slot's line (a demand fill, a flush, FlushAll) makes the value
	// unreachable, so nothing clears it.
	l1Arrive []timeline.Time

	// blockTLB holds superpage-style block translations that never miss
	// (the paper's machine maps the kernel this way; Impulse superpages
	// [21] install user block entries over shadow-contiguous regions).
	blockTLB []blockEntry

	// blockHot remembers the index of the last block entry that matched.
	// It is consulted only while blockDisjoint holds — with pairwise
	// disjoint entries, first-match equals any-match, so checking the hot
	// entry first cannot change which translation wins.
	blockHot      int
	blockDisjoint bool

	// fastVec is the table backing the access fast path (see
	// fastpath.go): one entry per L1 slot, set-major like the L1's own
	// lines and indexed by the virtual line's set, populated from the
	// slot a reference hit or fill reports, killed when that slot's line
	// changes, and invalidated by generation bump on any
	// translation-state change. Nil when the fast path is off; fastOn
	// mirrors !cfg.DisableFastPath.
	fastVec      []fastEntry
	fastSetMask  uint64 // L1 sets - 1
	fastWays     uint64 // L1 ways
	fastVecGen   uint32
	fastVecShift uint8 // log2 of the L1 line size
	fastOn       bool

	// l1HitLat is the latency a load hit in L1 observes (finishLoad
	// charges at least one cycle) and l1HitBucket its LoadLatency
	// bucket, precomputed so the fast path accounts a hit inline.
	l1HitLat    uint64
	l1HitBucket int

	// Host-side fast-table counters, registered by AttachObs as
	// sim.fast.*: committed fast accesses, the shadow-line share of
	// them, and probes that fell back to the reference path (all three
	// counted while a hub is attached; see countFastHit), and generation
	// bumps (including the one at construction). They describe host
	// work only and stay out of MemStats, so a simulated result never
	// depends on them.
	fastHits          uint64
	fastShadowHits    uint64
	fastMisses        uint64
	fastInvalidations uint64

	// Page-translation memo in front of the TLB (fastpath.go invariant 1
	// applies unchanged: populated only on a TLB hit, when a repeat
	// reference lookup would be state-free — the hit counter and ref bit
	// are not observable and the ref set is idempotent — and invalidated
	// by fastInvalidateAll alongside the line table). It serves the
	// accesses the line table does not: first touches of a line, L2 hits
	// and misses, and Gather shadow lines, which stream through pages
	// sequentially, so this memo keeps their translation cost flat. It is
	// direct-mapped, indexed by the low bits of the virtual page number:
	// the CG inner loops interleave three-plus streams on different pages,
	// and a no-copy tile's column walk spans 16 pages, more than a small
	// associative memo holds. Like the line table it is invalidated by
	// generation: an entry is live only while its stamp equals fastVecGen,
	// so the invalidation every TLB miss makes costs no scan.
	fastPages [fastPageSlots]fastPage

	l1LineMask uint64
	l2LineMask uint64

	// runScratch backs the MC.ResolveInto calls in readValue/writeValue
	// (shadow accesses no one run of their line holds), keeping the
	// shadow data path allocation-free.
	runScratch []mc.Run

	tracer Tracer

	// obs is the observability hub (nil = not attached, near-zero cost).
	obs      *obs.Hub
	cpuTrack obs.TrackID
}

// New builds a machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &stats.MemStats{}
	mem := membuf.New(cfg.Kernel.Layout.DRAMFrames())
	d, err := dram.New(cfg.DRAM, st)
	if err != nil {
		return nil, err
	}
	b, err := bus.New(cfg.Bus, st)
	if err != nil {
		return nil, err
	}
	controller, err := mc.New(cfg.MC, d, mem, st)
	if err != nil {
		return nil, err
	}
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	k, err := kernel.New(cfg.Kernel)
	if err != nil {
		return nil, err
	}
	// The controller's backing page table occupies real DRAM; keep the OS
	// allocator away from those frames.
	ptLo := uint64(cfg.MC.PgTblBase) >> addr.PageShift
	ptHi := (uint64(cfg.MC.PgTblBase) + cfg.MC.PgTblBytes) >> addr.PageShift
	if err := k.ReserveFrameRange(ptLo, ptHi); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:           cfg,
		St:            st,
		Mem:           mem,
		K:             k,
		MC:            controller,
		L1:            l1,
		L2:            l2,
		Bus:           b,
		DRAM:          d,
		TLB:           tlb.New(cfg.TLBEntries),
		l1LineMask:    cfg.L1.LineBytes - 1,
		l2LineMask:    cfg.L2.LineBytes - 1,
		l1HitLat:      max(cfg.L1.HitCycles, 1),
		fastOn:        !cfg.DisableFastPath,
		blockDisjoint: true,
	}
	m.l1HitBucket = obs.BucketIndex(m.l1HitLat, len(st.LoadLatency.Buckets))
	m.l1Arrive = make([]timeline.Time, cfg.L1.Sets()*cfg.L1.Ways)
	if m.fastOn {
		m.fastVec = make([]fastEntry, cfg.L1.Sets()*cfg.L1.Ways)
		m.fastSetMask = cfg.L1.Sets() - 1
		m.fastWays = cfg.L1.Ways
		m.fastVecShift = uint8(bits.TrailingZeros64(cfg.L1.LineBytes))
	}
	m.fastInvalidateAll()
	// Shadow entries cache the controller's resolution of their line, so
	// every functional remap must kill them, whoever calls it.
	controller.SetRemapHook(m.fastInvalidateAll)
	return m, nil
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// ReleaseBuffers returns the machine's large backing allocations (the
// simulated-memory page frames and the kernel's frame free lists) to
// their package pools, for reuse by the next machine, and drops the fast
// table, whose entries point into those frames. The harness calls it
// when a finished experiment cell discards its system; the machine must
// not be used afterwards.
func (m *Machine) ReleaseBuffers() {
	m.fastVec = nil
	m.fastOn = false
	m.Mem.Release()
	m.K.Release()
}

// Now returns the current cycle.
func (m *Machine) Now() timeline.Time { return m.clock }

// Tick charges n instructions of non-memory work. On the default
// single-issue CPU each costs one cycle; with IssueWidth w the CPU
// retires w per cycle.
func (m *Machine) Tick(n uint64) {
	m.St.Instructions += n
	m.clock += m.tickCycles(n)
}

// tickCycles is the clock advance of n instructions of non-memory work.
func (m *Machine) tickCycles(n uint64) uint64 {
	if w := m.cfg.IssueWidth; w > 1 {
		return (n + w - 1) / w
	}
	return n
}

// SetL1Prefetch toggles the L1 next-line prefetcher.
func (m *Machine) SetL1Prefetch(on bool) { m.cfg.L1Prefetch = on }

// SetMCPrefetch toggles controller prefetching.
func (m *Machine) SetMCPrefetch(on bool) { m.MC.SetPrefetch(on) }

// --- Address translation ------------------------------------------------

type blockEntry struct {
	vlo, vhi uint64 // virtual range [vlo, vhi)
	pbase    uint64 // bus address of vlo
}

// InstallBlockTLB installs a block (superpage) translation mapping the
// virtual range [v, v+bytes) to the contiguous bus range starting at p.
// Block entries are checked before the page TLB and never miss.
func (m *Machine) InstallBlockTLB(v addr.VAddr, p addr.PAddr, bytes uint64) {
	ne := blockEntry{vlo: uint64(v), vhi: uint64(v) + bytes, pbase: uint64(p)}
	for i := range m.blockTLB {
		if b := &m.blockTLB[i]; ne.vlo < b.vhi && ne.vhi > b.vlo {
			// Overlapping entries: first-match order matters, so the
			// hot-entry shortcut in translate must stay off.
			m.blockDisjoint = false
		}
	}
	m.blockTLB = append(m.blockTLB, ne)
	m.fastInvalidateAll()
}

// ClearBlockTLB removes all block translations.
func (m *Machine) ClearBlockTLB() {
	m.blockTLB = nil
	m.blockHot = 0
	m.blockDisjoint = true
	m.fastInvalidateAll()
}

// translate converts a virtual address to a bus address, charging TLB
// behaviour. Panics on an unmapped address: that is a simulation bug, not
// a modeled fault.
func (m *Machine) translate(v addr.VAddr) addr.PAddr {
	if len(m.blockTLB) > 0 {
		// Hot-entry shortcut: with pairwise disjoint entries at most one
		// can match, so probing the last match first is order-neutral.
		if m.blockDisjoint {
			if b := &m.blockTLB[m.blockHot]; uint64(v) >= b.vlo && uint64(v) < b.vhi {
				return addr.PAddr(b.pbase + (uint64(v) - b.vlo))
			}
		}
		for i := range m.blockTLB {
			if b := &m.blockTLB[i]; uint64(v) >= b.vlo && uint64(v) < b.vhi {
				m.blockHot = i
				return addr.PAddr(b.pbase + (uint64(v) - b.vlo))
			}
		}
	}
	page := v.PageNum()
	memo := &m.fastPages[page&(fastPageSlots-1)]
	if memo.page == page && memo.gen == m.fastVecGen {
		return addr.PAddr(memo.frame<<addr.PageShift | v.PageOff())
	}
	if frame, ok := m.TLB.Lookup(page); ok {
		if m.fastOn {
			memo.page, memo.frame, memo.gen = page, frame, m.fastVecGen
		}
		return addr.PAddr(frame<<addr.PageShift | v.PageOff())
	}
	p, ok := m.K.Translate(v)
	if !ok {
		panic(fmt.Sprintf("sim: access to unmapped virtual address %v", v))
	}
	m.St.TLBMisses++
	m.St.TLBWalkCost += m.cfg.TLBMissPenalty
	if m.obs != nil {
		m.obs.Span(m.cpuTrack, "tlb-walk", m.clock, m.clock+m.cfg.TLBMissPenalty)
	}
	m.clock += m.cfg.TLBMissPenalty
	// The insert may evict a victim translation or clear referenced bits
	// (the NRU sweep); either would let a stale MRU entry skip a TLB miss
	// the reference path would charge.
	m.TLB.Insert(v.PageNum(), p.PageNum())
	m.fastInvalidateAll()
	return p
}

// TranslateNoFault translates without charging timing (diagnostics and OS
// paths that are charged separately).
func (m *Machine) TranslateNoFault(v addr.VAddr) (addr.PAddr, bool) {
	return m.K.Translate(v)
}

// FlushTLB empties the processor TLB (e.g. after the OS rewrites page
// tables during a remap).
func (m *Machine) FlushTLB() {
	m.TLB.InvalidateAll()
	m.fastInvalidateAll()
}

// FlushTLBPage drops one translation.
func (m *Machine) FlushTLBPage(v addr.VAddr) {
	m.TLB.Invalidate(v.PageNum())
	m.fastInvalidateAll()
}

// --- Functional data movement -------------------------------------------

// lineData resolves the L1 line holding bus address p to the physical
// address of its first byte: the line's own base for ordinary memory,
// and for a shadow line the base of the one physically contiguous run
// the controller maps the whole line onto (mc.Controller.LineBase). whole
// is false for a shadow line no one run holds: a Gather line, or a
// Strided line across objects that are not packed back to back. A
// reference access resolves its line once here, and the answer serves
// both its data (readValue, writeValue) and its fast-table entry
// (fastPopulate).
func (m *Machine) lineData(p addr.PAddr) (dbase uint64, whole bool) {
	pbase := uint64(p) &^ m.l1LineMask
	if !m.MC.IsShadow(p) {
		return pbase, true
	}
	d, ok := m.MC.LineBase(addr.PAddr(pbase), m.cfg.L1.LineBytes)
	return uint64(d), ok
}

// dataAddr returns the physical address of the size bytes at bus address
// p, whose line lineData resolved to (dbase, whole), when they are one
// contiguous run there: always for ordinary memory, and for a shadow
// line held whole when the access stays inside it (the next shadow line
// resolves on its own). Otherwise ok is false and the controller must
// resolve the access itself.
func (m *Machine) dataAddr(p addr.PAddr, size, dbase uint64, whole bool) (addr.PAddr, bool) {
	off := uint64(p) & m.l1LineMask
	if !whole || (off+size > m.l1LineMask+1 && dbase != uint64(p)-off) {
		return 0, false
	}
	return addr.PAddr(dbase + off), true
}

// readValue reads size bytes of actual data at bus address p, whose line
// lineData resolved to (dbase, whole), resolving the shadow accesses no
// one run holds through the controller.
func (m *Machine) readValue(p addr.PAddr, size, dbase uint64, whole bool) uint64 {
	if d, ok := m.dataAddr(p, size, dbase, whole); ok {
		switch size {
		case 4:
			return uint64(m.Mem.Load32(d))
		case 8:
			return m.Mem.Load64(d)
		default:
			panic(fmt.Sprintf("sim: unsupported access size %d", size))
		}
	}
	runs, err := m.MC.ResolveInto(m.runScratch[:0], p, size)
	if err != nil {
		panic(fmt.Sprintf("sim: shadow read failed: %v", err))
	}
	m.runScratch = runs[:0]
	if len(runs) == 1 && runs[0].Bytes == size {
		// The gathered element is physically contiguous (the common
		// case): one whole-value load replaces the byte loop.
		if size == 8 {
			return m.Mem.Load64(runs[0].P)
		}
		return uint64(m.Mem.Load32(runs[0].P))
	}
	var v uint64
	shift := uint(0)
	for _, r := range runs {
		for i := uint64(0); i < r.Bytes; i++ {
			v |= uint64(m.Mem.Load8(r.P+addr.PAddr(i))) << shift
			shift += 8
		}
	}
	return v
}

// writeValue is readValue's store.
func (m *Machine) writeValue(p addr.PAddr, size, v, dbase uint64, whole bool) {
	if d, ok := m.dataAddr(p, size, dbase, whole); ok {
		switch size {
		case 4:
			m.Mem.Store32(d, uint32(v))
		case 8:
			m.Mem.Store64(d, v)
		default:
			panic(fmt.Sprintf("sim: unsupported access size %d", size))
		}
		return
	}
	runs, err := m.MC.ResolveInto(m.runScratch[:0], p, size)
	if err != nil {
		panic(fmt.Sprintf("sim: shadow write failed: %v", err))
	}
	m.runScratch = runs[:0]
	if len(runs) == 1 && runs[0].Bytes == size {
		if size == 8 {
			m.Mem.Store64(runs[0].P, v)
		} else {
			m.Mem.Store32(runs[0].P, uint32(v))
		}
		return
	}
	shift := uint(0)
	for _, r := range runs {
		for i := uint64(0); i < r.Bytes; i++ {
			m.Mem.Store8(r.P+addr.PAddr(i), uint8(v>>shift))
			shift += 8
		}
	}
}

// --- Load path -----------------------------------------------------------

// Load32 performs a 32-bit load at virtual address v.
func (m *Machine) Load32(v addr.VAddr) uint32 { return uint32(m.load(v, 4)) }

// Load64 performs a 64-bit load at virtual address v.
func (m *Machine) Load64(v addr.VAddr) uint64 { return m.load(v, 8) }

// LoadF64 performs a 64-bit floating-point load.
func (m *Machine) LoadF64(v addr.VAddr) float64 {
	return math.Float64frombits(m.load(v, 8))
}

func (m *Machine) load(v addr.VAddr, size uint64) uint64 {
	m.St.Loads++
	if m.fastOn {
		if value, ok := m.fastLoad(v, size); ok {
			return value
		}
		if m.obs != nil {
			m.fastMisses++
		}
	}
	return m.loadTail(v, size)
}

// loadTail is the reference load path: everything after the Loads
// counter and the fast-path attempt.
func (m *Machine) loadTail(v addr.VAddr, size uint64) uint64 {
	start := m.clock
	p := m.translate(v)
	dbase, whole := m.lineData(p)
	value := m.readValue(p, size, dbase, whole)

	// L1 probe (virtually indexed, physically tagged). The fast table
	// learns the line before any prefetch below can refill its slot. A
	// miss reports the slot the fill below takes; nothing between here
	// and fillL1 touches the L1.
	r := m.L1.Lookup(uint64(v), uint64(p))
	if r.Hit {
		m.fastPopulate(v, p, dbase, whole, r.Slot)
		done := m.clock + m.cfg.L1.HitCycles
		if r.WasPrefetched {
			m.St.L1PrefetchHits++
			if arr := m.l1Arrive[r.Slot]; arr > done {
				done = arr // partial hit: data still in flight
			}
			// PA 7200-style streaming: consuming a prefetched line
			// triggers the next prefetch, keeping streams ahead.
			if m.cfg.L1Prefetch {
				m.maybeL1Prefetch(v, p, done)
			}
		}
		m.St.L1LoadHits++
		m.finishLoad(start, done)
		if m.tracer != nil {
			m.traceLoad(v, p, size, start, LevelL1)
		}
		if m.obs != nil {
			m.obsLoad(start, LevelL1)
		}
		return value
	}

	// L1 miss: probe L2 (physically indexed). A miss reports the L2 slot
	// memoryFill takes; nothing between here and that fill touches the
	// L2.
	missAt := m.clock + m.cfg.L1.HitCycles
	r2 := m.L2.Lookup(uint64(p), uint64(p))
	if r2.Hit {
		_, done := m.l2port.Acquire(missAt, m.cfg.L2.HitCycles)
		m.St.L2LoadHits++
		m.fillL1(r.Slot, p, done)
		m.fastPopulate(v, p, dbase, whole, r.Slot)
		m.finishLoad(start, done)
		if m.tracer != nil {
			m.traceLoad(v, p, size, start, LevelL2)
		}
		if m.obs != nil {
			m.obsLoad(start, LevelL2)
		}
		if m.cfg.L1Prefetch {
			m.maybeL1Prefetch(v, p, done)
		}
		return value
	}

	// L2 miss: memory access through bus and controller.
	_, probed := m.l2port.Acquire(missAt, m.cfg.L2MissProbeCycles)
	done := m.memoryFill(p, probed, r2.Slot, false)
	m.fillL1(r.Slot, p, done)
	m.fastPopulate(v, p, dbase, whole, r.Slot)
	m.St.MemLoads++
	m.finishLoad(start, done)
	if m.tracer != nil {
		m.traceLoad(v, p, size, start, LevelMem)
	}
	if m.obs != nil {
		m.obsLoad(start, LevelMem)
	}
	if m.cfg.L1Prefetch {
		m.maybeL1Prefetch(v, p, done)
	}
	return value
}

// traceLoad emits a load event (after finishLoad advanced the clock).
// Callers check for a tracer first.
func (m *Machine) traceLoad(v addr.VAddr, p addr.PAddr, size uint64, start timeline.Time, lvl TraceLevel) {
	m.trace(TraceEvent{
		Cycle: start, Kind: TraceLoad, Level: lvl, VAddr: v, PAddr: p,
		Size: size, Latency: m.clock - start, Shadow: m.MC.IsShadow(p),
	})
}

func (m *Machine) finishLoad(start, done timeline.Time) {
	if done <= start {
		done = start + 1
	}
	m.St.LoadCycles += done - start
	m.St.LoadLatency.Observe(done - start)
	m.St.Instructions++
	m.clock = done
}

// memoryFill fetches the L2 line containing p from the memory system,
// installs it (dirty for a store's write-allocate) in slot, the fill
// slot its L2 miss reported, writes a dirty victim back with a posted
// write (bus + controller, non-blocking), and returns the completion
// time. A demand load then fills L1 itself; prefetches and store
// allocates fill L2 only.
func (m *Machine) memoryFill(p addr.PAddr, at timeline.Time, slot int, dirty bool) timeline.Time {
	lineP := addr.PAddr(uint64(p) &^ m.l2LineMask)
	reqDone := m.Bus.Request(at)
	ready, err := m.MC.ReadLine(reqDone, lineP)
	if err != nil {
		panic(fmt.Sprintf("sim: memory fill failed: %v", err))
	}
	done := m.Bus.Transfer(ready, m.cfg.L2.LineBytes)
	ev := m.L2.Fill(slot, uint64(p), dirty, false)
	if ev.Valid && ev.Dirty {
		m.St.L2Writebacks++
		vp := addr.PAddr(ev.PAddr(m.cfg.L2.LineBytes))
		req := m.Bus.Request(done)
		wbReady := m.Bus.Transfer(req, m.cfg.L2.LineBytes)
		if _, err := m.MC.WriteLine(wbReady, vp); err != nil {
			panic(fmt.Sprintf("sim: L2 writeback failed: %v", err))
		}
	}
	return done
}

// fillL1 installs the L1 line containing p in slot, the fill slot its
// demand's Lookup reported, kills the slot's fast-table entry, and
// handles a dirty victim by writing it down to L2 (write-back).
func (m *Machine) fillL1(slot int, p addr.PAddr, at timeline.Time) {
	ev := m.L1.Fill(slot, uint64(p), false, false)
	m.fastKill(slot)
	m.l1Victim(ev, at)
}

func (m *Machine) l1Victim(ev cache.Eviction, at timeline.Time) {
	if !ev.Valid || !ev.Dirty {
		return
	}
	m.St.L1Writebacks++
	vp := addr.PAddr(ev.PAddr(m.cfg.L1.LineBytes))
	// The L1 victim's data lands in L2 if present (PIPT probe by its
	// physical address); otherwise it is written around to memory.
	if _, hit := m.L2.MarkDirty(uint64(vp), uint64(vp)); hit {
		m.l2port.Acquire(at, m.cfg.L2MissProbeCycles)
		return
	}
	req := m.Bus.Request(at)
	wbReady := m.Bus.Transfer(req, m.cfg.L1.LineBytes)
	if _, err := m.MC.WriteLine(wbReady, addr.PAddr(uint64(vp)&^m.l2LineMask)); err != nil {
		panic(fmt.Sprintf("sim: L1 writeback failed: %v", err))
	}
}

// maybeL1Prefetch implements HP PA 7200-style next-line prefetching into
// the L1: after a demand L1 miss, fetch the following line in the
// background. The prefetch contends for the L2 port (and the bus on an L2
// miss), which is how the paper's "L1 prefetching hurts dense matrix
// product through L2 contention" effect arises. p is the bus address
// the demand access at v translated to. Callers check that the
// prefetcher is on.
func (m *Machine) maybeL1Prefetch(v addr.VAddr, p addr.PAddr, at timeline.Time) {
	nv := addr.VAddr((uint64(v) &^ m.l1LineMask) + m.cfg.L1.LineBytes)
	// Do not walk page tables for a prefetch: translate only within the
	// same page or via a TLB hit.
	var np addr.PAddr
	if nv.PageNum() == v.PageNum() {
		if len(m.blockTLB) == 0 {
			// The demand's translation came from the TLB, the page memo
			// or the kernel, and the first two only ever hold the
			// kernel's (a remap flushes the page, a process switch the
			// whole TLB, and virtual addresses are never reused): the
			// next line shares p's frame.
			np = addr.PAddr(uint64(p)&^addr.PageMask | nv.PageOff())
		} else {
			// A block entry's bus base need not be page-aligned, so the
			// demand's frame need not be the kernel's.
			kp, ok := m.K.Translate(nv)
			if !ok {
				return
			}
			np = kp
		}
	} else if frame, ok := m.TLB.Lookup(nv.PageNum()); ok {
		np = addr.PAddr(frame<<addr.PageShift | nv.PageOff())
	} else {
		return
	}
	// Nothing from here to the fill touches the L1, so the fill takes the
	// slot the probe found.
	slot, hit := m.L1.Probe(uint64(nv), uint64(np))
	if hit {
		return
	}
	if !m.MC.CoversLine(addr.PAddr(uint64(np) &^ m.l2LineMask)) {
		return // would run past a remapped region's end
	}
	var arrive timeline.Time
	if r2 := m.L2.Lookup(uint64(np), uint64(np)); r2.Hit {
		_, arrive = m.l2port.Acquire(at, m.cfg.L2.HitCycles)
	} else {
		// A prefetch that misses L2 would occupy the bus and DRAM; issue
		// it only when the bus is idle, approximating the demand-priority
		// arbitration real prefetchers rely on. Otherwise drop it.
		if m.Bus.BusyUntil() > at {
			return
		}
		_, probed := m.l2port.Acquire(at, m.cfg.L2MissProbeCycles)
		arrive = m.memoryFill(np, probed, r2.Slot, false)
	}
	m.St.L1Prefetches++
	ev := m.L1.Fill(slot, uint64(np), false, true)
	m.fastKill(slot)
	m.l1Victim(ev, arrive)
	m.l1Arrive[slot] = arrive
}

// --- Store path ----------------------------------------------------------

// Store32 performs a 32-bit store.
func (m *Machine) Store32(v addr.VAddr, val uint32) { m.store(v, 4, uint64(val)) }

// Store64 performs a 64-bit store.
func (m *Machine) Store64(v addr.VAddr, val uint64) { m.store(v, 8, val) }

// StoreF64 performs a 64-bit floating-point store.
func (m *Machine) StoreF64(v addr.VAddr, val float64) {
	m.store(v, 8, math.Float64bits(val))
}

// store models the write-around L1 / write-allocate L2 policy: a store
// that hits L1 dirties the line; a miss bypasses L1 and goes to L2, which
// allocates (fetching the line from memory if absent). The CPU itself does
// not stall on stores beyond the issue cycle (posted writes); the bus, L2
// port, and DRAM time they consume delays later loads.
func (m *Machine) store(v addr.VAddr, size, val uint64) {
	m.St.Stores++
	if m.fastOn {
		if m.fastStore(v, size, val) {
			return
		}
		if m.obs != nil {
			m.fastMisses++
		}
	}
	m.storeTail(v, size, val)
}

// storeTail is the reference store path after the Stores counter and the
// fast-path attempt (see loadTail).
func (m *Machine) storeTail(v addr.VAddr, size, val uint64) {
	start := m.clock
	p := m.translate(v)
	dbase, whole := m.lineData(p)
	m.writeValue(p, size, val, dbase, whole)

	if slot, hit := m.L1.MarkDirty(uint64(v), uint64(p)); hit {
		m.St.L1StoreHits++
		m.fastPopulate(v, p, dbase, whole, slot)
	} else if slot, hit := m.L2.MarkDirty(uint64(p), uint64(p)); hit {
		m.St.L2StoreHits++
		m.l2port.Acquire(m.clock+1, m.cfg.L2MissProbeCycles)
	} else {
		m.St.MemStores++
		_, probed := m.l2port.Acquire(m.clock+1, m.cfg.L2MissProbeCycles)
		// Write-allocate: fetch the line into L2 in the background,
		// dirty, in the slot the L2 miss reported.
		m.memoryFill(p, probed, slot, true)
	}
	m.St.Instructions++
	done := m.clock + 1 // issue cycle; any TLB walk already advanced clock
	// Finite store queue: when the memory system has run too far behind
	// the posted stores, the CPU stalls until the backlog shrinks.
	if lim := m.cfg.StoreBacklogCycles; lim > 0 {
		if bu := m.Bus.BusyUntil(); bu > done+lim {
			done = bu - lim
		}
	}
	m.St.StoreCycles += done - start
	m.clock = done
	if m.tracer != nil {
		m.trace(TraceEvent{Cycle: start, Kind: TraceStore, VAddr: v, PAddr: p,
			Size: size, Shadow: m.MC.IsShadow(p)})
	}
}

// --- Cache maintenance ---------------------------------------------------

// FlushCyclesPerLine is the CPU cost of one flush/purge instruction.
const FlushCyclesPerLine = 2

// FlushVRange writes back and invalidates all cache lines overlapping the
// virtual range [v, v+bytes). This is the consistency operation Impulse
// requires around remappings ("we assume that an application ... ensures
// data consistency through appropriate flushing of the caches", §2.3).
func (m *Machine) FlushVRange(v addr.VAddr, bytes uint64) {
	m.cacheMaint(v, bytes, true)
}

// PurgeVRange invalidates without write-back (for data that is dead or
// clean, e.g. the A and B input tiles in tiled matrix product).
func (m *Machine) PurgeVRange(v addr.VAddr, bytes uint64) {
	m.cacheMaint(v, bytes, false)
}

func (m *Machine) cacheMaint(v addr.VAddr, bytes uint64, writeback bool) {
	if bytes == 0 {
		return
	}
	lo := uint64(v) &^ m.l1LineMask
	hi := uint64(v) + bytes
	for a := lo; a < hi; a += m.cfg.L1.LineBytes {
		va := addr.VAddr(a)
		p, ok := m.K.Translate(va)
		if !ok {
			continue
		}
		m.St.FlushedLines++
		m.clock += FlushCyclesPerLine
		m.St.FlushCycles += FlushCyclesPerLine
		if m.tracer != nil {
			m.trace(TraceEvent{Cycle: m.clock, Kind: TraceFlush, VAddr: va, PAddr: p,
				Size: m.cfg.L1.LineBytes, Shadow: m.MC.IsShadow(p)})
		}
		slot, dirty := m.L1.FlushLine(uint64(va), uint64(p))
		m.fastKill(slot)
		if dirty && writeback {
			// Dirty L1 data moves to L2 (or memory) like a victim.
			if _, hit := m.L2.MarkDirty(uint64(p), uint64(p)); !hit {
				req := m.Bus.Request(m.clock)
				wbReady := m.Bus.Transfer(req, m.cfg.L1.LineBytes)
				if _, err := m.MC.WriteLine(wbReady, addr.PAddr(uint64(p)&^m.l2LineMask)); err != nil {
					panic(fmt.Sprintf("sim: flush writeback failed: %v", err))
				}
			}
		}
		// L2 maintenance at its own line granularity.
		if a%m.cfg.L2.LineBytes == 0 || a == lo {
			lp := uint64(p) &^ m.l2LineMask
			if _, dirty := m.L2.FlushLine(lp, lp); dirty && writeback {
				m.St.L2Writebacks++
				req := m.Bus.Request(m.clock)
				wbReady := m.Bus.Transfer(req, m.cfg.L2.LineBytes)
				if _, err := m.MC.WriteLine(wbReady, addr.PAddr(lp)); err != nil {
					panic(fmt.Sprintf("sim: flush writeback failed: %v", err))
				}
			}
		}
	}
}

// ResetCachesUntimed drops all cache, TLB, and controller-buffer state
// without charging any time or traffic. It is a measurement-harness
// utility for establishing cold-cache conditions after untimed setup —
// simulated memory already holds every store's data, so no write-back is
// needed. It must not be used inside a timed section (that is the
// consistency protocol's job, which costs cycles).
func (m *Machine) ResetCachesUntimed() {
	m.L1.FlushAll(nil)
	m.L2.FlushAll(nil)
	m.TLB.InvalidateAll()
	m.MC.InvalidateBuffers()
	m.fastInvalidateAll()
}

// FlushAllCaches empties both caches, writing dirty lines back
// functionally-free but charging flush costs.
func (m *Machine) FlushAllCaches() {
	m.L1.FlushAll(func(lineAddr uint64, dirty bool) {
		m.St.FlushedLines++
		m.clock += FlushCyclesPerLine
	})
	m.fastInvalidateAll() // every L1 slot's line changed
	m.L2.FlushAll(func(lineAddr uint64, dirty bool) {
		m.St.FlushedLines++
		m.clock += FlushCyclesPerLine
		if dirty {
			m.St.L2Writebacks++
			p := addr.PAddr(lineAddr * m.cfg.L2.LineBytes)
			req := m.Bus.Request(m.clock)
			wbReady := m.Bus.Transfer(req, m.cfg.L2.LineBytes)
			if _, err := m.MC.WriteLine(wbReady, p); err != nil {
				panic(fmt.Sprintf("sim: flush writeback failed: %v", err))
			}
		}
	})
}
