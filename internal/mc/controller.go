package mc

import (
	"fmt"

	"impulse/internal/addr"
	"impulse/internal/bitutil"
	"impulse/internal/dram"
	"impulse/internal/membuf"
	"impulse/internal/obs"
	"impulse/internal/stats"
	"impulse/internal/timeline"
	"impulse/internal/tlb"
)

// NumDescriptors is the number of shadow descriptors the controller holds.
// "currently we model eight despite needing no more than three for the
// applications we simulated" (§2.2).
const NumDescriptors = 8

// Config parameterizes the controller.
type Config struct {
	Layout addr.Layout

	PipelineCycles uint64 // fixed controller latency on every request
	AddrCalcCycles uint64 // ALU cycles per remapped element address
	AssembleCycles uint64 // cycles to assemble a gathered line for the bus

	PgTblEntries int        // on-chip PgTbl TLB entries
	PgTblBase    addr.PAddr // DRAM region backing the controller page table
	PgTblBytes   uint64

	SRAMBytes    uint64 // non-remapped prefetch cache ("2K buffer", §2.2)
	DescBufBytes uint64 // per-descriptor prefetch buffer ("256-byte", §2.2)
	LineBytes    uint64 // cache-line size served to the bus (the L2 line)

	Prefetch bool       // controller prefetching (shadow and non-shadow)
	Order    dram.Order // DRAM scheduling policy for gathers
}

// DefaultConfig returns the paper-calibrated controller parameters.
// PgTblBase/PgTblBytes place the backing page table in the top megabyte of
// a 256 MB DRAM; the system layer (internal/core) reserves those frames.
func DefaultConfig() Config {
	l := addr.DefaultLayout()
	const ptBytes = 1 << 20
	return Config{
		Layout:         l,
		PipelineCycles: 2,
		AddrCalcCycles: 1,
		AssembleCycles: 2,
		PgTblEntries:   64,
		PgTblBase:      addr.PAddr(l.DRAMBytes - ptBytes),
		PgTblBytes:     ptBytes,
		SRAMBytes:      2 << 10,
		DescBufBytes:   256,
		LineBytes:      128,
		Prefetch:       false,
		Order:          dram.InOrder,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if !bitutil.IsPow2(c.LineBytes) || c.LineBytes == 0 {
		return fmt.Errorf("mc: line size %d not a power of two", c.LineBytes)
	}
	if c.SRAMBytes < c.LineBytes || c.DescBufBytes < c.LineBytes {
		return fmt.Errorf("mc: prefetch buffers smaller than a line")
	}
	if c.PgTblEntries <= 0 {
		return fmt.Errorf("mc: PgTbl must have entries")
	}
	if c.PgTblBytes == 0 || uint64(c.PgTblBase)+c.PgTblBytes > c.Layout.DRAMBytes {
		return fmt.Errorf("mc: backing page table outside DRAM")
	}
	return nil
}

// bufEntry is one prefetched line (in the SRAM or a descriptor buffer).
type bufEntry struct {
	lineAddr uint64 // bus line address (p / LineBytes)
	readyAt  timeline.Time
	valid    bool
}

type descState struct {
	d        Descriptor
	active   bool
	buf      []bufEntry // shadow prefetch buffer (DescBufBytes/LineBytes slots)
	bufNext  int        // FIFO cursor
	vecLines []uint64   // cached indirection-vector DRAM line addresses
	vecNext  int

	// vecFn is the functional indirection-vector reader, built the
	// first time the slot holds a Gather descriptor so the per-access
	// resolve/gather paths don't allocate a closure per call. It reads
	// the slot's current descriptor, so it outlives retargets; other
	// kinds never call it.
	vecFn func(i uint64) uint32

	// Per-descriptor activity, exposed through the obs registry: totals
	// for the run, kept across every SetDescriptor on the slot. Plain
	// increments kept whether or not a hub is attached: one add per
	// shadow-line event is cheaper than a branch is worth.
	gathers    uint64 // demand lines built by gathering from DRAM
	bufHits    uint64 // demand lines served from the prefetch buffer
	prefetches uint64 // prefetch gathers launched
}

// Controller is the Impulse memory controller.
type Controller struct {
	cfg   Config
	dram  *dram.DRAM
	mem   *membuf.Memory
	st    *stats.MemStats
	descs [NumDescriptors]descState

	// lineShift/lineMask memoize the power-of-two LineBytes for the
	// per-access line arithmetic in timing.go.
	lineShift uint
	lineMask  uint64

	pgtlb   *tlb.TLB
	backing pvMap // pvpage -> frame (contents live in DRAM at PgTblBase)

	sram     []bufEntry
	sramNext int

	// Scratch buffers for the per-line resolve/gather paths. A gather
	// runs for every shadow cache line; reusing these keeps that path
	// allocation-free. Single-threaded like the rest of the controller.
	piecesBuf []piece
	reqsBuf   []lineReq
	linesBuf  []addr.PAddr
	runsBuf   []Run
	seenBuf   []addr.PAddr

	// onRemap runs after every operation that can change what a shadow
	// address resolves to (nil = nobody listening). See SetRemapHook.
	onRemap func()

	h     *obs.Hub
	track obs.TrackID
}

// SetRemapHook installs f (nil detaches) to run after every operation
// that can change the functional resolution of a shadow address:
// SetDescriptor, ClearDescriptor and MapPV. The machine uses it to drop
// cached shadow-line translations (LineBase answers), so no caller of
// those operations can leave a stale one behind. InvalidateBuffers
// changes timing only and does not fire it.
func (c *Controller) SetRemapHook(f func()) { c.onRemap = f }

func (c *Controller) remapped() {
	if c.onRemap != nil {
		c.onRemap()
	}
}

// New builds a controller attached to the given DRAM model and simulated
// memory (used for functional indirection-vector reads). st may be nil.
func New(cfg Config, d *dram.DRAM, mem *membuf.Memory, st *stats.MemStats) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if st == nil {
		st = &stats.MemStats{}
	}
	c := &Controller{
		cfg:       cfg,
		dram:      d,
		mem:       mem,
		st:        st,
		lineShift: bitutil.Log2(cfg.LineBytes),
		lineMask:  cfg.LineBytes - 1,
		pgtlb:     tlb.New(cfg.PgTblEntries),
		sram:      make([]bufEntry, cfg.SRAMBytes/cfg.LineBytes),
	}
	c.backing.init()
	for i := range c.descs {
		c.descs[i].buf = make([]bufEntry, cfg.DescBufBytes/cfg.LineBytes)
		c.descs[i].vecLines = make([]uint64, 2)
		for j := range c.descs[i].vecLines {
			c.descs[i].vecLines[j] = ^uint64(0)
		}
	}
	return c, nil
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// AttachObs wires the controller into an observability hub: an "mc" trace
// track (fills, gathers, buffer hits, prefetch launches) and registry
// gauges for each descriptor slot's activity, so the effectiveness of the
// paper's 256-byte per-descriptor prefetch buffers is directly readable.
func (c *Controller) AttachObs(h *obs.Hub) {
	c.h = h
	c.track = h.Track("mc")
	r := h.Reg()
	for i := range c.descs {
		ds := &c.descs[i]
		name := fmt.Sprintf("mc.desc%d.", i)
		r.Gauge(name+"active", func() uint64 {
			if ds.active {
				return 1
			}
			return 0
		})
		r.Counter(name+"gathers", &ds.gathers)
		r.Counter(name+"buf_hits", &ds.bufHits)
		r.Counter(name+"prefetches", &ds.prefetches)
	}
}

// SetPrefetch enables or disables controller prefetching.
func (c *Controller) SetPrefetch(on bool) { c.cfg.Prefetch = on }

// --- OS interface -----------------------------------------------------

// SetDescriptor installs d into the given slot (0..NumDescriptors-1).
func (c *Controller) SetDescriptor(slot int, d Descriptor) error {
	if slot < 0 || slot >= NumDescriptors {
		return fmt.Errorf("mc: descriptor slot %d out of range", slot)
	}
	if err := d.Validate(); err != nil {
		return err
	}
	if !c.cfg.Layout.IsShadow(d.ShadowBase) ||
		!c.cfg.Layout.IsShadow(addr.PAddr(uint64(d.ShadowBase)+d.Bytes-1)) {
		return fmt.Errorf("mc: descriptor region %v+%d outside shadow space", d.ShadowBase, d.Bytes)
	}
	for i := range c.descs {
		if i != slot && c.descs[i].active && overlaps(&c.descs[i].d, &d) {
			return fmt.Errorf("mc: descriptor overlaps slot %d", i)
		}
	}
	// Reset the slot's buffers in place: a new descriptor starts with
	// an empty prefetch buffer and vector-line cache, while the activity
	// counters keep accumulating for the run.
	ds := &c.descs[slot]
	ds.d = d
	ds.active = true
	clear(ds.buf)
	ds.bufNext = 0
	for i := range ds.vecLines {
		ds.vecLines[i] = ^uint64(0)
	}
	ds.vecNext = 0
	if d.Kind == Gather && ds.vecFn == nil {
		ds.vecFn = c.makeVecFn(ds)
	}
	c.remapped()
	return nil
}

// ClearDescriptor deactivates a slot.
func (c *Controller) ClearDescriptor(slot int) {
	if slot >= 0 && slot < NumDescriptors {
		c.descs[slot].active = false
		c.remapped()
	}
}

// FreeSlot returns the index of an inactive descriptor slot.
func (c *Controller) FreeSlot() (int, error) {
	for i := range c.descs {
		if !c.descs[i].active {
			return i, nil
		}
	}
	return 0, fmt.Errorf("mc: all %d shadow descriptors in use", NumDescriptors)
}

func overlaps(a, b *Descriptor) bool {
	aLo, aHi := uint64(a.ShadowBase), uint64(a.ShadowBase)+a.Bytes
	bLo, bHi := uint64(b.ShadowBase), uint64(b.ShadowBase)+b.Bytes
	return aLo < bHi && bLo < aHi
}

// MapPV installs pvpage -> frame in the controller's backing page table
// (§2.1 step 4: "The OS downloads to the memory controller a set of page
// mappings for pseudo-virtual space").
func (c *Controller) MapPV(pvpage, frame uint64) {
	c.backing.put(pvpage, frame)
	c.pgtlb.Invalidate(pvpage)
	c.remapped()
}

// MapPVRange maps consecutive pseudo-virtual pages starting at the page of
// pvBase to the given frames.
func (c *Controller) MapPVRange(pvBase addr.PVAddr, frames []uint64) {
	base := pvBase.PageNum()
	for i, f := range frames {
		c.MapPV(base+uint64(i), f)
	}
}

// InvalidateBuffers drops all prefetched data held at the controller (the
// non-remapped SRAM and every descriptor buffer). The OS issues this as
// part of the consistency protocol when remapped source data changes
// under an active descriptor (e.g. the multiplicand vector of conjugate
// gradient is rewritten between iterations).
func (c *Controller) InvalidateBuffers() {
	for i := range c.sram {
		c.sram[i].valid = false
	}
	for i := range c.descs {
		for j := range c.descs[i].buf {
			c.descs[i].buf[j].valid = false
		}
	}
}

// --- Functional resolution --------------------------------------------

// Run is a contiguous physical byte range.
type Run struct {
	P     addr.PAddr
	Bytes uint64
}

// Resolve maps the shadow byte range [p, p+n) to its physical runs. It is
// the pure remapping function: no timing, no state changes. The machine
// uses it to move actual data for loads/stores to shadow space, and the
// property tests use it as the remapping oracle.
func (c *Controller) Resolve(p addr.PAddr, n uint64) ([]Run, error) {
	return c.ResolveInto(nil, p, n)
}

// ResolveInto is Resolve appending into dst, so per-access callers can
// reuse a scratch buffer (pass dst[:0]) and keep the shadow load/store
// data path allocation-free. The result aliases dst's backing array.
func (c *Controller) ResolveInto(dst []Run, p addr.PAddr, n uint64) ([]Run, error) {
	ds := c.findDesc(p)
	if ds == nil {
		return nil, fmt.Errorf("mc: no descriptor covers shadow address %v", p)
	}
	return c.resolve(dst, ds, p, n)
}

// LineBase reports the physical address of shadow byte p when the whole
// range [p, p+n) resolves, through a Direct or Strided descriptor, to one
// physically contiguous run starting there — so byte p+i lives at
// LineBase+i for every i < n. The machine caches the answer for a
// resident L1 line; it stays exact until the next remap (SetRemapHook).
// Gather ranges always report false: their resolution reads the
// indirection vector from simulated memory, which a CPU store can change
// without any controller operation. A Strided range spanning several
// objects that are not packed back to back also reports false, by shape
// and without a walk: it is never one run unless two pseudo-virtual pages
// alias one frame, and missing that case only costs the fast path.
func (c *Controller) LineBase(p addr.PAddr, n uint64) (addr.PAddr, bool) {
	ds := c.findDesc(p)
	if ds == nil || ds.d.Kind == Gather {
		return 0, false
	}
	if d := &ds.d; d.Kind == Strided && d.ObjBytes < n && d.StrideBytes != d.ObjBytes {
		return 0, false
	}
	runs, err := c.resolve(c.runsBuf[:0], ds, p, n)
	c.runsBuf = runs[:0]
	if err != nil || len(runs) == 0 {
		return 0, false
	}
	next := runs[0].P
	for _, r := range runs {
		if r.P != next {
			return 0, false
		}
		next += addr.PAddr(r.Bytes)
	}
	return runs[0].P, true
}

// resolve is ResolveInto under an already-found descriptor.
func (c *Controller) resolve(dst []Run, ds *descState, p addr.PAddr, n uint64) ([]Run, error) {
	off := uint64(p) - uint64(ds.d.ShadowBase)
	pieces, err := ds.d.appendPieces(c.piecesBuf[:0], off, n, ds.vecFn)
	c.piecesBuf = pieces[:0]
	if err != nil {
		return nil, err
	}
	for _, pc := range pieces {
		// A piece may cross pseudo-virtual pages.
		pv, remain := pc.pv, pc.bytes
		for remain > 0 {
			frame, ok := c.backing.get(pv.PageNum())
			if !ok {
				return nil, fmt.Errorf("mc: pseudo-virtual page %#x unmapped", pv.PageNum())
			}
			take := uint64(addr.PageSize) - pv.PageOff()
			if take > remain {
				take = remain
			}
			dst = append(dst, Run{P: addr.PAddr(frame<<addr.PageShift | pv.PageOff()), Bytes: take})
			pv += addr.PVAddr(take)
			remain -= take
		}
	}
	return dst, nil
}

// makeVecFn builds the functional indirection-vector reader for a gather
// descriptor: entry i is a uint32 at VecPV + 4i, translated through the
// backing page table and read from simulated memory.
func (c *Controller) makeVecFn(ds *descState) func(i uint64) uint32 {
	return func(i uint64) uint32 {
		pv := ds.d.VecPV + addr.PVAddr(4*i)
		frame, ok := c.backing.get(pv.PageNum())
		if !ok {
			panic(fmt.Sprintf("mc: indirection vector page %#x unmapped", pv.PageNum()))
		}
		return c.mem.Load32(addr.PAddr(frame<<addr.PageShift | pv.PageOff()))
	}
}

func (c *Controller) findDesc(p addr.PAddr) *descState {
	for i := range c.descs {
		if c.descs[i].active && c.descs[i].d.Contains(p) {
			return &c.descs[i]
		}
	}
	return nil
}

// IsShadow reports whether p is a shadow address under this controller's
// layout.
func (c *Controller) IsShadow(p addr.PAddr) bool { return c.cfg.Layout.IsShadow(p) }

// CoversLine reports whether a line fill starting at line-aligned address
// p would be serviceable: either p is ordinary physical memory, or an
// active descriptor covers it. Prefetchers consult this to avoid running
// off the end of a remapped region (whose shadow pages are mapped at page
// granularity but remapped only up to the structure's exact size).
func (c *Controller) CoversLine(p addr.PAddr) bool {
	if !c.IsShadow(p) {
		return true
	}
	ds := c.findDesc(p)
	return ds != nil && uint64(p)-uint64(ds.d.ShadowBase) < ds.d.Bytes
}
