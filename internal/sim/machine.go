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

	// inflight tracks L1 prefetches whose data has not yet arrived:
	// L1 line address -> arrival time. A demand hit on such a line stalls
	// until arrival (a "partial hit").
	inflight inflightTable

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

	// fastVec is the direct-mapped line-hit table backing the access
	// fast path (see fastpath.go): a vline-indexed table large enough to
	// remember every resident L1 line, populated on reference L1 hits,
	// invalidated by generation bump on any translation-state change,
	// and re-validated on every use via cache.FastTouch/FastDirty. Nil
	// when the fast path is disabled; fastOn mirrors
	// !cfg.DisableFastPath.
	fastVec      []fastEntry
	fastVecMask  uint64
	fastVecGen   uint32
	fastVecShift uint8 // log2 of the L1 line size
	fastOn       bool

	// Host-side fast-table counters, registered by AttachObs as
	// sim.fast.*: committed fast accesses and the shadow-line share of
	// them (both counted while a hub is attached; see countFastHit),
	// and generation bumps (including the one at construction). They
	// describe host work only and stay out of MemStats, so a simulated
	// result never depends on them.
	fastHits          uint64
	fastShadowHits    uint64
	fastInvalidations uint64

	// Page-translation memo in front of the TLB (fastpath.go invariant 1
	// applies unchanged: populated only on a TLB hit, when a repeat
	// reference lookup would be state-free — the hit counter and ref bit
	// are not observable and the ref set is idempotent — and invalidated
	// by fastInvalidateAll alongside the line table). It serves the
	// accesses the line table does not: first touches of a line, L2 hits
	// and misses, and Gather shadow lines, which stream through pages
	// sequentially, so this memo keeps their translation cost flat. Four
	// entries with round-robin replacement, because the CG inner loops
	// interleave three-plus streams on different pages and a one-entry
	// memo thrashed between them. Empty entries hold fastInvalid (no
	// virtual page number is all-ones).
	fastPages    [fastPageWays]uint64
	fastFrames   [fastPageWays]uint64
	fastPageNext uint8

	l1LineMask uint64
	l2LineMask uint64

	// runScratch backs the MC.ResolveInto calls in readValue/writeValue,
	// keeping the shadow data path allocation-free.
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
		fastOn:        !cfg.DisableFastPath,
		blockDisjoint: true,
	}
	m.inflight.init()
	if m.fastOn {
		// 4x the L1 line count (next power of two) keeps conflict
		// evictions rare, so nearly every repeat hit to a resident line
		// commits on the fast path.
		n := uint64(1) << bits.Len64(4*cfg.L1.Bytes/cfg.L1.LineBytes-1)
		m.fastVec = make([]fastEntry, n)
		m.fastVecMask = n - 1
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
// their package pools, for reuse by the next machine. The harness calls
// it when a finished experiment cell discards its system; the machine
// must not be used afterwards.
func (m *Machine) ReleaseBuffers() {
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
	w := m.cfg.IssueWidth
	if w <= 1 {
		m.clock += n
		return
	}
	m.clock += (n + w - 1) / w
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
	for i := range m.fastPages {
		if m.fastPages[i] == page {
			return addr.PAddr(m.fastFrames[i]<<addr.PageShift | v.PageOff())
		}
	}
	if frame, ok := m.TLB.Lookup(page); ok {
		if m.fastOn {
			i := m.fastPageNext
			m.fastPageNext++
			if m.fastPageNext == fastPageWays {
				m.fastPageNext = 0
			}
			m.fastPages[i], m.fastFrames[i] = page, frame
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

// readValue reads size bytes of actual data at bus address p, resolving
// shadow addresses through the controller.
func (m *Machine) readValue(p addr.PAddr, size uint64) uint64 {
	if !m.MC.IsShadow(p) {
		switch size {
		case 4:
			return uint64(m.Mem.Load32(p))
		case 8:
			return m.Mem.Load64(p)
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

func (m *Machine) writeValue(p addr.PAddr, size, v uint64) {
	if !m.MC.IsShadow(p) {
		switch size {
		case 4:
			m.Mem.Store32(p, uint32(v))
		case 8:
			m.Mem.Store64(p, v)
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
	}
	return m.loadTail(v, size)
}

// loadTail is the reference load path: everything after the Loads
// counter and the fast-path attempt.
func (m *Machine) loadTail(v addr.VAddr, size uint64) uint64 {
	start := m.clock
	p := m.translate(v)
	value := m.readValue(p, size)

	// L1 probe (virtually indexed, physically tagged).
	if r := m.L1.Lookup(uint64(v), uint64(p)); r.Hit {
		done := m.clock + m.cfg.L1.HitCycles
		if r.WasPrefetched {
			m.St.L1PrefetchHits++
			la := m.L1.LineAddr(uint64(p))
			if arr, ok := m.inflight.get(la); ok {
				if arr > done {
					done = arr // partial hit: data still in flight
				}
				m.inflight.del(la)
			}
			// PA 7200-style streaming: consuming a prefetched line
			// triggers the next prefetch, keeping streams ahead.
			m.maybeL1Prefetch(v, done)
		}
		m.St.L1LoadHits++
		m.finishLoad(start, done)
		m.traceLoad(v, p, size, start, LevelL1)
		if m.obs != nil {
			m.obsLoad(start, LevelL1)
		}
		m.fastPopulate(v, p, r.Slot)
		return value
	}

	// L1 miss: probe L2 (physically indexed).
	missAt := m.clock + m.cfg.L1.HitCycles
	if m.L2.Lookup(uint64(p), uint64(p)).Hit {
		_, done := m.l2port.Acquire(missAt, m.cfg.L2.HitCycles)
		m.St.L2LoadHits++
		m.fillL1(v, p, done)
		m.finishLoad(start, done)
		m.traceLoad(v, p, size, start, LevelL2)
		if m.obs != nil {
			m.obsLoad(start, LevelL2)
		}
		m.maybeL1Prefetch(v, done)
		m.fastPopulate(v, p, m.L1.FindSlot(uint64(v), uint64(p)))
		return value
	}

	// L2 miss: memory access through bus and controller.
	_, probed := m.l2port.Acquire(missAt, m.cfg.L2MissProbeCycles)
	done := m.memoryFill(v, p, probed, false)
	m.St.MemLoads++
	m.finishLoad(start, done)
	m.traceLoad(v, p, size, start, LevelMem)
	if m.obs != nil {
		m.obsLoad(start, LevelMem)
	}
	m.maybeL1Prefetch(v, done)
	m.fastPopulate(v, p, m.L1.FindSlot(uint64(v), uint64(p)))
	return value
}

// traceLoad emits a load event (after finishLoad advanced the clock).
func (m *Machine) traceLoad(v addr.VAddr, p addr.PAddr, size uint64, start timeline.Time, lvl TraceLevel) {
	if m.tracer == nil {
		return
	}
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
// fills L2 (and L1 for demand fetches), and returns the completion time.
// For background fills (prefetch, store allocate) the caller ignores the
// L1 fill by passing background=true.
func (m *Machine) memoryFill(v addr.VAddr, p addr.PAddr, at timeline.Time, background bool) timeline.Time {
	lineP := addr.PAddr(uint64(p) &^ m.l2LineMask)
	reqDone := m.Bus.Request(at)
	ready, err := m.MC.ReadLine(reqDone, lineP)
	if err != nil {
		panic(fmt.Sprintf("sim: memory fill failed: %v", err))
	}
	done := m.Bus.Transfer(ready, m.cfg.L2.LineBytes)
	m.insertL2(p, false, done)
	if !background {
		m.fillL1(v, p, done)
	}
	return done
}

// insertL2 installs the line containing p into L2, handling a dirty
// victim with a posted write-back (bus + controller, non-blocking).
func (m *Machine) insertL2(p addr.PAddr, dirty bool, at timeline.Time) {
	ev := m.L2.Insert(uint64(p), uint64(p), dirty, false)
	if ev.Valid && ev.Dirty {
		m.St.L2Writebacks++
		vp := addr.PAddr(ev.PAddr(m.cfg.L2.LineBytes))
		req := m.Bus.Request(at)
		wbReady := m.Bus.Transfer(req, m.cfg.L2.LineBytes)
		if _, err := m.MC.WriteLine(wbReady, vp); err != nil {
			panic(fmt.Sprintf("sim: L2 writeback failed: %v", err))
		}
	}
}

// fillL1 installs the L1 line containing p, handling a dirty victim by
// writing it down to L2 (write-back).
func (m *Machine) fillL1(v addr.VAddr, p addr.PAddr, at timeline.Time) {
	ev := m.L1.Insert(uint64(v), uint64(p), false, false)
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
	if m.L2.MarkDirty(uint64(vp), uint64(vp)) {
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
// product through L2 contention" effect arises.
func (m *Machine) maybeL1Prefetch(v addr.VAddr, at timeline.Time) {
	if !m.cfg.L1Prefetch {
		return
	}
	nv := addr.VAddr((uint64(v) &^ m.l1LineMask) + m.cfg.L1.LineBytes)
	// Do not walk page tables for a prefetch: translate only within the
	// same page or via a TLB hit.
	var np addr.PAddr
	if nv.PageNum() == v.PageNum() {
		p, ok := m.K.Translate(nv)
		if !ok {
			return
		}
		np = p
	} else if frame, ok := m.TLB.Lookup(nv.PageNum()); ok {
		np = addr.PAddr(frame<<addr.PageShift | nv.PageOff())
	} else {
		return
	}
	if m.L1.Contains(uint64(nv), uint64(np)) {
		return
	}
	if !m.MC.CoversLine(addr.PAddr(uint64(np) &^ m.l2LineMask)) {
		return // would run past a remapped region's end
	}
	var arrive timeline.Time
	if m.L2.Lookup(uint64(np), uint64(np)).Hit {
		_, arrive = m.l2port.Acquire(at, m.cfg.L2.HitCycles)
	} else {
		// A prefetch that misses L2 would occupy the bus and DRAM; issue
		// it only when the bus is idle, approximating the demand-priority
		// arbitration real prefetchers rely on. Otherwise drop it.
		if m.Bus.BusyUntil() > at {
			return
		}
		_, probed := m.l2port.Acquire(at, m.cfg.L2MissProbeCycles)
		arrive = m.memoryFill(nv, np, probed, true)
	}
	m.St.L1Prefetches++
	ev := m.L1.Insert(uint64(nv), uint64(np), false, true)
	m.l1Victim(ev, arrive)
	m.inflight.put(m.L1.LineAddr(uint64(np)), arrive)
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
	if m.fastOn && m.fastStore(v, size, val) {
		return
	}
	m.storeTail(v, size, val)
}

// storeTail is the reference store path after the Stores counter and the
// fast-path attempt (see loadTail).
func (m *Machine) storeTail(v addr.VAddr, size, val uint64) {
	start := m.clock
	p := m.translate(v)
	m.writeValue(p, size, val)

	if m.L1.MarkDirty(uint64(v), uint64(p)) {
		m.St.L1StoreHits++
		m.fastPopulate(v, p, m.L1.FindSlot(uint64(v), uint64(p)))
	} else if m.L2.MarkDirty(uint64(p), uint64(p)) {
		m.St.L2StoreHits++
		m.l2port.Acquire(m.clock+1, m.cfg.L2MissProbeCycles)
	} else {
		m.St.MemStores++
		_, probed := m.l2port.Acquire(m.clock+1, m.cfg.L2MissProbeCycles)
		// Write-allocate: fetch the line into L2 in the background and
		// mark it dirty.
		m.memoryFill(v, p, probed, true)
		m.L2.MarkDirty(uint64(p), uint64(p))
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
		present, dirty := m.L1.FlushLine(uint64(va), uint64(p))
		if present && dirty && writeback {
			// Dirty L1 data moves to L2 (or memory) like a victim.
			if !m.L2.MarkDirty(uint64(p), uint64(p)) {
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
			present, dirty := m.L2.FlushLine(lp, lp)
			if present && dirty && writeback {
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
	m.inflight.reset()
	m.fastInvalidateAll()
}

// FlushAllCaches empties both caches, writing dirty lines back
// functionally-free but charging flush costs.
func (m *Machine) FlushAllCaches() {
	m.L1.FlushAll(func(lineAddr uint64, dirty bool) {
		m.St.FlushedLines++
		m.clock += FlushCyclesPerLine
	})
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
