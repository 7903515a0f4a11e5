// Package kernel models the operating-system state an Impulse system
// depends on: physical frame allocation (including the color-aware
// allocation page recoloring needs), the process page table, a virtual
// address-space allocator, and the shadow address-space allocator.
//
// "Both shadow addresses and virtual addresses are system resources, so
// the operating system must manage their allocation and mapping" (§2.1).
// This package is pure bookkeeping — it has no clock. The cycle costs of
// system calls, descriptor downloads, and cache flushes are charged by the
// system layer (internal/core), which also orchestrates the five-step
// remapping protocol of §2.1.
package kernel

import (
	"fmt"
	"sync"

	"impulse/internal/addr"
	"impulse/internal/bitutil"
)

// Kernel is the OS state of the simulated machine. It manages physical
// frames, per-process page tables and virtual-space allocators, and the
// shadow address space. Kernel state is multi-process: every allocation
// is owned by the process that made it, and the protection checks the
// paper requires ("system calls that allow applications to use Impulse
// without violating inter-process protection", §2.1) are enforced here —
// a process cannot map another process's frames or shadow regions unless
// the owner granted access (the LRPC-style sharing of §6).
type Kernel struct {
	layout addr.Layout

	// Physical frame allocator. The per-color free stacks are carved out
	// of one backing array (frameStore) so a kernel costs two allocations
	// instead of one per color; both recycle through freePool (Release).
	freeByColor [][]uint64 // color -> stack of free frame numbers
	frameStore  []uint64
	numColors   uint64
	colorSeed   uint64         // xorshift state for uncolored allocation
	allocated   map[uint64]int // frame number -> owning process
	frames      uint64

	// Processes. Process 0 exists from boot and is current initially.
	procs   map[int]*procState
	cur     int
	nextPid int
	vBase   uint64 // first user virtual address for new processes

	// Shadow-space bump allocator and region ownership.
	shNext    uint64
	shTop     uint64
	shRegions []shadowRegion

	// Last-translation cache in front of the page-table map. Workload
	// access streams revisit the same page for long runs, so this single
	// entry absorbs most Translate calls (the processor TLB sits above
	// this, but TLB misses and kernel-side translations still land
	// here). Invalidated on any page-table mutation or process switch.
	ltPage  uint64
	ltFrame uint64
	ltOK    bool
}

// procState is one process's address space.
type procState struct {
	pt    map[uint64]uint64 // virtual page number -> frame (or shadow page)
	vNext uint64
}

// shadowRegion records ownership of an allocated shadow range.
type shadowRegion struct {
	base   uint64
	bytes  uint64
	owner  int
	grants map[int]bool
}

// Config parameterizes the kernel.
type Config struct {
	Layout addr.Layout
	// PageColors is the number of physical page colors, i.e. how many
	// pages make up one way of the physically-indexed L2 cache. The
	// paper's L2 (256 KB, 2-way) has 128 KB per way = 32 colors with 4 KB
	// pages.
	PageColors uint64
	// VBase is the first user virtual address handed out.
	VBase uint64
}

// DefaultConfig matches the paper's geometry.
func DefaultConfig() Config {
	return Config{
		Layout:     addr.DefaultLayout(),
		PageColors: 32,
		VBase:      0x0040_0000, // leave a null-guard + text region unused
	}
}

// freeResources is the recyclable part of a kernel's frame allocator.
type freeResources struct {
	store []uint64
	lists [][]uint64
}

var freePool sync.Pool

// New builds a kernel.
func New(cfg Config) (*Kernel, error) {
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	if !bitutil.IsPow2(cfg.PageColors) || cfg.PageColors == 0 {
		return nil, fmt.Errorf("kernel: PageColors must be a power of two, got %d", cfg.PageColors)
	}
	k := &Kernel{
		layout:    cfg.Layout,
		numColors: cfg.PageColors,
		allocated: make(map[uint64]int),
		frames:    cfg.Layout.DRAMFrames(),
		colorSeed: 0x9E3779B97F4A7C15,
		procs:     map[int]*procState{0: {pt: make(map[uint64]uint64), vNext: cfg.VBase}},
		vBase:     cfg.VBase,
		cur:       0,
		nextPid:   1,
		shNext:    cfg.Layout.ShadowBase,
		shTop:     cfg.Layout.ShadowBase + cfg.Layout.ShadowBytes,
	}
	if r, ok := freePool.Get().(*freeResources); ok &&
		uint64(cap(r.store)) >= k.frames && uint64(cap(r.lists)) >= k.numColors {
		k.frameStore = r.store[:k.frames]
		k.freeByColor = r.lists[:k.numColors]
	} else {
		k.frameStore = make([]uint64, k.frames)
		k.freeByColor = make([][]uint64, k.numColors)
	}
	// Carve the backing array into one full-capacity segment per color
	// (the capacity bound keeps a FreeFrame append from growing into the
	// neighbouring color's segment) and fill each segment high-to-low so
	// allocation order is low-to-high — the same stack contents the old
	// per-color append loop built.
	start := uint64(0)
	for c := uint64(0); c < k.numColors; c++ {
		count := k.frames / k.numColors
		if c < k.frames%k.numColors {
			count++
		}
		seg := k.frameStore[start : start+count : start+count]
		for i := uint64(0); i < count; i++ {
			seg[i] = c + (count-1-i)*k.numColors
		}
		k.freeByColor[c] = seg
		start += count
	}
	return k, nil
}

// Release returns the frame allocator's backing storage to the package
// pool for reuse by the next same-geometry kernel. The caller must not
// use the kernel afterwards.
func (k *Kernel) Release() {
	if k.frameStore == nil {
		return
	}
	freePool.Put(&freeResources{store: k.frameStore, lists: k.freeByColor})
	k.frameStore = nil
	k.freeByColor = nil
}

// p returns the current process's state.
func (k *Kernel) p() *procState { return k.procs[k.cur] }

// Layout returns the bus-address-space layout.
func (k *Kernel) Layout() addr.Layout { return k.layout }

// NumColors returns the number of physical page colors.
func (k *Kernel) NumColors() uint64 { return k.numColors }

// FrameColor returns the page color of a frame number.
func (k *Kernel) FrameColor(frame uint64) uint64 { return frame & (k.numColors - 1) }

// AllocFrame allocates any free frame, choosing page colors
// pseudo-randomly the way a general-purpose allocator's free list spreads
// pages across a physically indexed cache. Random (rather than
// round-robin) colors matter for fidelity: the occasional same-color
// collisions between a structure's pages are exactly the conflict misses
// page recoloring exists to remove (§3.1).
func (k *Kernel) AllocFrame() (uint64, error) {
	for tries := uint64(0); tries < k.numColors; tries++ {
		// xorshift step; deterministic across runs.
		k.colorSeed ^= k.colorSeed << 13
		k.colorSeed ^= k.colorSeed >> 7
		k.colorSeed ^= k.colorSeed << 17
		c := k.colorSeed % k.numColors
		if f, err := k.AllocFrameColored(c, c); err == nil {
			return f, nil
		}
	}
	// Random probing exhausted: fall back to a linear scan.
	for c := uint64(0); c < k.numColors; c++ {
		if f, err := k.AllocFrameColored(c, c); err == nil {
			return f, nil
		}
	}
	return 0, fmt.Errorf("kernel: out of physical memory (%d frames)", k.frames)
}

// AllocFrameColored allocates a frame whose color lies in [lo, hi]
// (inclusive). This is the primitive behind page recoloring: the recolored
// alias is placed so its L2 index bits land in the chosen cache region.
func (k *Kernel) AllocFrameColored(lo, hi uint64) (uint64, error) {
	if lo > hi || hi >= k.numColors {
		return 0, fmt.Errorf("kernel: bad color range [%d,%d] of %d", lo, hi, k.numColors)
	}
	for c := lo; c <= hi; c++ {
		list := k.freeByColor[c]
		if len(list) == 0 {
			continue
		}
		f := list[len(list)-1]
		k.freeByColor[c] = list[:len(list)-1]
		k.allocated[f] = k.cur
		return f, nil
	}
	return 0, fmt.Errorf("kernel: no free frame with color in [%d,%d]", lo, hi)
}

// FreeFrame returns a frame to the allocator. Only the owning process
// may free it.
func (k *Kernel) FreeFrame(f uint64) error {
	owner, ok := k.allocated[f]
	if !ok {
		return fmt.Errorf("kernel: double free of frame %d", f)
	}
	if owner != k.cur {
		return fmt.Errorf("kernel: process %d cannot free frame %d owned by process %d", k.cur, f, owner)
	}
	delete(k.allocated, f)
	c := k.FrameColor(f)
	k.freeByColor[c] = append(k.freeByColor[c], f)
	return nil
}

// AllocatedFrames returns how many frames are currently allocated.
func (k *Kernel) AllocatedFrames() int { return len(k.allocated) }

// ReserveFrameRange permanently removes frames [lo, hi) from the
// allocator (used for regions owned by hardware, e.g. the Impulse
// controller's backing page table).
func (k *Kernel) ReserveFrameRange(lo, hi uint64) error {
	if hi > k.frames || lo > hi {
		return fmt.Errorf("kernel: bad reserve range [%d,%d) of %d frames", lo, hi, k.frames)
	}
	for c := range k.freeByColor {
		list := k.freeByColor[c][:0]
		for _, f := range k.freeByColor[c] {
			if f < lo || f >= hi {
				list = append(list, f)
			}
		}
		k.freeByColor[c] = list
	}
	return nil
}

// AllocVirtual reserves a contiguous virtual region of the given size with
// the given alignment (both rounded to pages; align must be a power of two
// >= the page size, or 0 for page alignment). No frames are mapped.
func (k *Kernel) AllocVirtual(bytes, align uint64) (addr.VAddr, error) {
	if align == 0 {
		align = addr.PageSize
	}
	if !bitutil.IsPow2(align) || align < addr.PageSize {
		return 0, fmt.Errorf("kernel: bad virtual alignment %d", align)
	}
	base := bitutil.AlignUp(k.p().vNext, align)
	size := bitutil.AlignUp(bytes, addr.PageSize)
	if base+size < base {
		return 0, fmt.Errorf("kernel: virtual address space exhausted")
	}
	k.p().vNext = base + size
	return addr.VAddr(base), nil
}

// MapPage installs vpage -> frame in the current process's page table.
// The frame must belong to the calling process.
func (k *Kernel) MapPage(vpage, frame uint64) error {
	if frame >= k.frames {
		return fmt.Errorf("kernel: frame %d beyond installed DRAM", frame)
	}
	if owner, ok := k.allocated[frame]; !ok || owner != k.cur {
		return fmt.Errorf("kernel: process %d cannot map frame %d (owner %d, allocated %v)",
			k.cur, frame, owner, ok)
	}
	if old, ok := k.p().pt[vpage]; ok {
		return fmt.Errorf("kernel: virtual page %#x already mapped to frame %d", vpage, old)
	}
	k.invalidateLT()
	k.p().pt[vpage] = frame
	return nil
}

// RemapPage replaces an existing mapping (used by recoloring and tile
// remapping, which move a virtual page onto a new frame or shadow page).
func (k *Kernel) RemapPage(vpage, frame uint64) error {
	if _, ok := k.p().pt[vpage]; !ok {
		return fmt.Errorf("kernel: virtual page %#x not mapped", vpage)
	}
	k.invalidateLT()
	k.p().pt[vpage] = frame
	return nil
}

// MapShadowPage maps a virtual page directly onto a shadow page (the
// "pseudo frame number" is the shadow page number). Shadow pages lie
// beyond installed DRAM, so this bypasses the frame-range check.
func (k *Kernel) MapShadowPage(vpage uint64, shadow addr.PAddr) error {
	if !k.layout.IsShadow(shadow) {
		return fmt.Errorf("kernel: %v is not a shadow address", shadow)
	}
	if err := k.shadowAccessible(shadow); err != nil {
		return err
	}
	k.invalidateLT()
	k.p().pt[vpage] = shadow.PageNum()
	return nil
}

// RemapToShadow rewrites an existing virtual page mapping to a shadow page.
func (k *Kernel) RemapToShadow(vpage uint64, shadow addr.PAddr) error {
	if _, ok := k.p().pt[vpage]; !ok {
		return fmt.Errorf("kernel: virtual page %#x not mapped", vpage)
	}
	if !k.layout.IsShadow(shadow) {
		return fmt.Errorf("kernel: %v is not a shadow address", shadow)
	}
	if err := k.shadowAccessible(shadow); err != nil {
		return err
	}
	k.invalidateLT()
	k.p().pt[vpage] = shadow.PageNum()
	return nil
}

// Translate translates a virtual address to a bus address.
func (k *Kernel) Translate(v addr.VAddr) (addr.PAddr, bool) {
	page := v.PageNum()
	if k.ltOK && k.ltPage == page {
		return addr.PAddr(k.ltFrame<<addr.PageShift | v.PageOff()), true
	}
	f, ok := k.p().pt[page]
	if !ok {
		return 0, false
	}
	k.ltPage, k.ltFrame, k.ltOK = page, f, true
	return addr.PAddr(f<<addr.PageShift | v.PageOff()), true
}

// invalidateLT drops the last-translation cache; every page-table
// mutation and process switch must call it.
func (k *Kernel) invalidateLT() { k.ltOK = false }

// TranslatePage returns the frame (or shadow page) number mapped at vpage.
func (k *Kernel) TranslatePage(vpage uint64) (uint64, bool) {
	f, ok := k.p().pt[vpage]
	return f, ok
}

// AllocAndMap allocates `bytes` of virtual space backed by freshly
// allocated frames and returns the base virtual address.
func (k *Kernel) AllocAndMap(bytes, align uint64) (addr.VAddr, error) {
	return k.allocAndMap(bytes, align, func() (uint64, error) { return k.AllocFrame() })
}

// AllocAndMapColored is AllocAndMap with every frame drawn from the given
// color range; colors rotate within the range so large structures tile the
// target cache region instead of piling on one color.
func (k *Kernel) AllocAndMapColored(bytes, align, colorLo, colorHi uint64) (addr.VAddr, error) {
	next := colorLo
	return k.allocAndMap(bytes, align, func() (uint64, error) {
		for tries := colorLo; tries <= colorHi; tries++ {
			c := next
			next++
			if next > colorHi {
				next = colorLo
			}
			if f, err := k.AllocFrameColored(c, c); err == nil {
				return f, nil
			}
		}
		return 0, fmt.Errorf("kernel: colors [%d,%d] exhausted", colorLo, colorHi)
	})
}

func (k *Kernel) allocAndMap(bytes, align uint64, alloc func() (uint64, error)) (addr.VAddr, error) {
	va, err := k.AllocVirtual(bytes, align)
	if err != nil {
		return 0, err
	}
	pages := bitutil.AlignUp(bytes, addr.PageSize) >> addr.PageShift
	for i := uint64(0); i < pages; i++ {
		f, err := alloc()
		if err != nil {
			return 0, err
		}
		if err := k.MapPage(va.PageNum()+i, f); err != nil {
			return 0, err
		}
	}
	return va, nil
}

// ShadowAlloc reserves a contiguous shadow region ("The OS allocates
// shadow addresses from a pool of physical addresses that do not
// correspond to real DRAM addresses", §2.1 step 2). Alignment must be a
// power of two; 0 means page alignment.
func (k *Kernel) ShadowAlloc(bytes, align uint64) (addr.PAddr, error) {
	if align == 0 {
		align = addr.PageSize
	}
	if !bitutil.IsPow2(align) {
		return 0, fmt.Errorf("kernel: bad shadow alignment %d", align)
	}
	base := bitutil.AlignUp(k.shNext, align)
	size := bitutil.AlignUp(bytes, addr.PageSize)
	if base+size > k.shTop {
		return 0, fmt.Errorf("kernel: shadow space exhausted (%d bytes requested)", bytes)
	}
	k.shNext = base + size
	k.shRegions = append(k.shRegions, shadowRegion{base: base, bytes: size, owner: k.cur})
	return addr.PAddr(base), nil
}

// shadowRegionOf finds the allocated region containing p.
func (k *Kernel) shadowRegionOf(p addr.PAddr) *shadowRegion {
	for i := range k.shRegions {
		r := &k.shRegions[i]
		if uint64(p) >= r.base && uint64(p) < r.base+r.bytes {
			return r
		}
	}
	return nil
}

// shadowAccessible reports whether the current process may map p.
func (k *Kernel) shadowAccessible(p addr.PAddr) error {
	r := k.shadowRegionOf(p)
	if r == nil {
		return fmt.Errorf("kernel: shadow address %v not allocated", p)
	}
	if r.owner != k.cur && !r.grants[k.cur] {
		return fmt.Errorf("kernel: process %d denied access to shadow region of process %d (no grant)",
			k.cur, r.owner)
	}
	return nil
}

// FramesOf returns the frame numbers backing the virtual range
// [va, va+bytes), one per page, failing if any page is unmapped or is a
// shadow mapping. Used when downloading controller page tables.
func (k *Kernel) FramesOf(va addr.VAddr, bytes uint64) ([]uint64, error) {
	first := va.PageNum()
	last := (uint64(va) + bytes - 1) >> addr.PageShift
	out := make([]uint64, 0, last-first+1)
	for p := first; p <= last; p++ {
		f, ok := k.p().pt[p]
		if !ok {
			return nil, fmt.Errorf("kernel: page %#x unmapped", p)
		}
		if f >= k.frames {
			return nil, fmt.Errorf("kernel: page %#x maps to shadow, not DRAM", p)
		}
		out = append(out, f)
	}
	return out, nil
}

// --- Processes and protection -------------------------------------------

// CreateProcess creates a new, empty address space and returns its pid.
func (k *Kernel) CreateProcess() int {
	pid := k.nextPid
	k.nextPid++
	k.procs[pid] = &procState{pt: make(map[uint64]uint64), vNext: k.vBase}
	return pid
}

// SwitchProcess makes pid the current process. The caller (the system
// layer) is responsible for charging the context-switch cost and
// flushing the processor TLB.
func (k *Kernel) SwitchProcess(pid int) error {
	if _, ok := k.procs[pid]; !ok {
		return fmt.Errorf("kernel: no process %d", pid)
	}
	k.invalidateLT()
	k.cur = pid
	return nil
}

// CurrentProcess returns the running process's pid.
func (k *Kernel) CurrentProcess() int { return k.cur }

// Processes returns the number of live processes.
func (k *Kernel) Processes() int { return len(k.procs) }

// GrantShadow lets process pid map pages of the shadow region containing
// base. Only the region's owner may grant (the protection rule of §2.1;
// this is how §6's LRPC-style shared shadow buffers are authorized).
func (k *Kernel) GrantShadow(base addr.PAddr, pid int) error {
	r := k.shadowRegionOf(base)
	if r == nil {
		return fmt.Errorf("kernel: shadow address %v not allocated", base)
	}
	if r.owner != k.cur {
		return fmt.Errorf("kernel: process %d cannot grant shadow owned by process %d", k.cur, r.owner)
	}
	if _, ok := k.procs[pid]; !ok {
		return fmt.Errorf("kernel: no process %d", pid)
	}
	if r.grants == nil {
		r.grants = make(map[int]bool)
	}
	r.grants[pid] = true
	return nil
}

// RevokeShadow removes a grant.
func (k *Kernel) RevokeShadow(base addr.PAddr, pid int) error {
	r := k.shadowRegionOf(base)
	if r == nil {
		return fmt.Errorf("kernel: shadow address %v not allocated", base)
	}
	if r.owner != k.cur {
		return fmt.Errorf("kernel: process %d cannot revoke shadow owned by process %d", k.cur, r.owner)
	}
	delete(r.grants, pid)
	return nil
}
