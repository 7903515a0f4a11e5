// Package cache implements the processor cache model: a set-associative
// cache with configurable geometry, indexing, and write policy, matching
// the two caches of the paper's simulated machine:
//
//   - L1 data: 32 KB, direct-mapped, 32-byte lines, virtually indexed /
//     physically tagged, write-back, write-around (no allocate on store
//     miss), 1-cycle hit;
//   - L2 data: 256 KB, 2-way set-associative, 128-byte lines, physically
//     indexed and tagged, write-back, write-allocate, 7-cycle hit.
//
// The model tracks tags and state only. Data values live in the simulated
// DRAM (package membuf) and stores update them functionally at execution
// time; write-back traffic is modeled in *timing and traffic accounting*
// (dirty evictions produce bus/DRAM activity). This is the standard
// trace-simulator factoring: the paper's measured quantities (hit ratios,
// cycles, bus bytes) depend on tag state, not on which copy of a byte is
// current. Cache-flush costs required by Impulse's consistency protocol
// are charged by the OS model (package kernel).
package cache

import (
	"fmt"

	"impulse/internal/bitutil"
)

// Config describes one cache level.
type Config struct {
	Name          string
	Bytes         uint64 // total capacity; power of two
	LineBytes     uint64 // line size; power of two
	Ways          uint64 // associativity; power of two (1 = direct-mapped)
	VirtualIndex  bool   // true: index with virtual address (VIPT), else physical
	WriteAllocate bool   // allocate on store miss (false = write-around)
	HitCycles     uint64 // access latency on hit
}

// L1Default returns the paper's L1 data-cache geometry.
func L1Default() Config {
	return Config{
		Name: "L1", Bytes: 32 << 10, LineBytes: 32, Ways: 1,
		VirtualIndex: true, WriteAllocate: false, HitCycles: 1,
	}
}

// L2Default returns the paper's L2 data-cache geometry.
func L2Default() Config {
	return Config{
		Name: "L2", Bytes: 256 << 10, LineBytes: 128, Ways: 2,
		VirtualIndex: false, WriteAllocate: true, HitCycles: 7,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !bitutil.IsPow2(c.Bytes) || !bitutil.IsPow2(c.LineBytes) || !bitutil.IsPow2(c.Ways) {
		return fmt.Errorf("cache %s: sizes must be powers of two: %+v", c.Name, c)
	}
	if c.LineBytes*c.Ways > c.Bytes {
		return fmt.Errorf("cache %s: capacity %d too small for %d ways of %d-byte lines",
			c.Name, c.Bytes, c.Ways, c.LineBytes)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() uint64 { return c.Bytes / (c.LineBytes * c.Ways) }

type line struct {
	lineAddr   uint64 // physical line number (full identity, not a partial tag)
	lastUse    uint64 // LRU clock value
	valid      bool
	dirty      bool
	prefetched bool // brought in by a prefetch and not yet demanded
}

// Cache models one level. It is purely a tag store; the orchestration of
// misses across levels lives in package sim.
type Cache struct {
	cfg       Config
	lines     []line // sets * ways, set-major
	lineShift uint
	setMask   uint64
	clock     uint64 // LRU clock
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, cfg.Sets()*cfg.Ways),
		lineShift: bitutil.Log2(cfg.LineBytes),
		setMask:   cfg.Sets() - 1,
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the physical line number of p.
func (c *Cache) LineAddr(p uint64) uint64 { return p >> c.lineShift }

// SetIndex returns the set selected by the index address (virtual for
// VIPT, physical for PIPT — the caller passes the right one).
func (c *Cache) SetIndex(indexAddr uint64) uint64 {
	return (indexAddr >> c.lineShift) & c.setMask
}

func (c *Cache) set(indexAddr uint64) []line {
	s := c.SetIndex(indexAddr)
	return c.lines[s*c.cfg.Ways : (s+1)*c.cfg.Ways]
}

// LookupResult reports the outcome of a cache probe.
type LookupResult struct {
	Hit           bool
	WasPrefetched bool // the hit line had been prefetched and never used
	Slot          int  // global line index (set*ways+way) of the hit, else -1
}

// Lookup probes for the line containing paddr, indexed by indexAddr, and
// updates LRU state on a hit.
func (c *Cache) Lookup(indexAddr, paddr uint64) LookupResult {
	la := c.LineAddr(paddr)
	if c.cfg.Ways == 1 {
		// Direct-mapped: the candidate line is a single array slot.
		i := c.SetIndex(indexAddr)
		l := &c.lines[i]
		if l.valid && l.lineAddr == la {
			c.clock++
			l.lastUse = c.clock
			r := LookupResult{Hit: true, WasPrefetched: l.prefetched, Slot: int(i)}
			l.prefetched = false
			return r
		}
		return LookupResult{Slot: -1}
	}
	base := c.SetIndex(indexAddr) * c.cfg.Ways
	set := c.lines[base : base+c.cfg.Ways]
	for i := range set {
		if set[i].valid && set[i].lineAddr == la {
			c.clock++
			set[i].lastUse = c.clock
			r := LookupResult{Hit: true, WasPrefetched: set[i].prefetched, Slot: int(base) + i}
			set[i].prefetched = false
			return r
		}
	}
	return LookupResult{Slot: -1}
}

// FindSlot returns the global line index (set*ways+way) of the resident
// line containing paddr, or -1. It touches no LRU or prefetch state; the
// sim fast path uses it to remember where a line landed.
func (c *Cache) FindSlot(indexAddr, paddr uint64) int {
	la := c.LineAddr(paddr)
	base := c.SetIndex(indexAddr) * c.cfg.Ways
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.lines[i].valid && c.lines[i].lineAddr == la {
			return int(i)
		}
	}
	return -1
}

// FastTouch re-validates that slot still holds the (never-prefetched)
// line la and, if so, applies exactly the LRU update a Lookup hit would.
// It reports false — touching no state at all — when the slot has been
// refilled, invalidated, or holds a prefetched copy; the caller must then
// fall back to the reference path, whose prefetch branch has additional
// observable effects this shortcut must not replicate.
func (c *Cache) FastTouch(slot int, la uint64) bool {
	l := &c.lines[slot]
	if !l.valid || l.lineAddr != la || l.prefetched {
		return false
	}
	c.clock++
	l.lastUse = c.clock
	return true
}

// FastDirty is FastTouch plus the dirty marking a MarkDirty hit performs.
func (c *Cache) FastDirty(slot int, la uint64) bool {
	l := &c.lines[slot]
	if !l.valid || l.lineAddr != la || l.prefetched {
		return false
	}
	l.dirty = true
	c.clock++
	l.lastUse = c.clock
	return true
}

// Contains reports whether the line containing paddr is present, without
// touching LRU or prefetch state.
func (c *Cache) Contains(indexAddr, paddr uint64) bool {
	la := c.LineAddr(paddr)
	for _, l := range c.set(indexAddr) {
		if l.valid && l.lineAddr == la {
			return true
		}
	}
	return false
}

// Eviction describes a victim line displaced by Insert.
type Eviction struct {
	Valid    bool
	Dirty    bool
	LineAddr uint64 // physical line number of the victim
}

// PAddr returns the victim's physical byte address.
func (e Eviction) PAddr(lineBytes uint64) uint64 { return e.LineAddr * lineBytes }

// Insert installs the line containing paddr (indexed by indexAddr),
// choosing an invalid way or the LRU victim. It returns the eviction (if
// any). If the line is already present it is refreshed in place (its dirty
// bit is preserved, ORed with the new one).
func (c *Cache) Insert(indexAddr, paddr uint64, dirty, prefetched bool) Eviction {
	la := c.LineAddr(paddr)
	set := c.set(indexAddr)
	c.clock++
	// Refresh in place if present.
	for i := range set {
		if set[i].valid && set[i].lineAddr == la {
			set[i].lastUse = c.clock
			set[i].dirty = set[i].dirty || dirty
			set[i].prefetched = set[i].prefetched && prefetched
			return Eviction{}
		}
	}
	// Prefer an invalid way; otherwise evict the least recently used.
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if victim < 0 || set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	ev := Eviction{Valid: set[victim].valid, Dirty: set[victim].valid && set[victim].dirty, LineAddr: set[victim].lineAddr}
	set[victim] = line{lineAddr: la, lastUse: c.clock, valid: true, dirty: dirty, prefetched: prefetched}
	return ev
}

// MarkDirty marks the line containing paddr dirty (store hit). It reports
// whether the line was present.
func (c *Cache) MarkDirty(indexAddr, paddr uint64) bool {
	la := c.LineAddr(paddr)
	set := c.set(indexAddr)
	for i := range set {
		if set[i].valid && set[i].lineAddr == la {
			set[i].dirty = true
			c.clock++
			set[i].lastUse = c.clock
			set[i].prefetched = false
			return true
		}
	}
	return false
}

// FlushLine removes the line containing paddr (indexed by indexAddr) and
// reports (present, wasDirty). A flush writes dirty data back (the caller
// accounts for the traffic); the line becomes invalid either way.
func (c *Cache) FlushLine(indexAddr, paddr uint64) (present, dirty bool) {
	la := c.LineAddr(paddr)
	set := c.set(indexAddr)
	for i := range set {
		if set[i].valid && set[i].lineAddr == la {
			d := set[i].dirty
			set[i] = line{}
			return true, d
		}
	}
	return false, false
}

// FlushAll invalidates every line, invoking fn for each valid line with
// its physical line number and dirty bit (for writeback accounting). fn
// may be nil.
func (c *Cache) FlushAll(fn func(lineAddr uint64, dirty bool)) {
	for i := range c.lines {
		if c.lines[i].valid {
			if fn != nil {
				fn(c.lines[i].lineAddr, c.lines[i].dirty)
			}
			c.lines[i] = line{}
		}
	}
}

// ValidLines returns the number of valid lines (test/diagnostic helper).
func (c *Cache) ValidLines() uint64 {
	var n uint64
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
